"""Target sets as ``score`` reads them: the sections, the label rule and the column form.

``merge_sections`` is the one rule for the labels of a set. ``extract.TargetSet``
applies it when a set is built, and ``score`` applies it to each target-set
file it reads into ``TargetColumns``. This module imports neither numpy, the
corpus module nor the extractor, so reading target-set files loads none of
them.

A period is held here as its index, ``year * 4 + quarter - 1``, which orders
and shifts as ``corpus.YearQuarter`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .extract import TargetSet

SECTION_PRESENTATION = "presentation"
SECTION_QA = "analyst_qa"
SECTIONS = (SECTION_PRESENTATION, SECTION_QA)


def normalize_label(text: str) -> str:
    return " ".join(text.split()).casefold()


def merge_sections(labels: Iterable[tuple[str, str, int]]) -> tuple[tuple[str, ...], int, int]:
    """(merged texts, presentation labels, analyst_qa labels) of ``(text, section, index)`` labels.

    Every section must be one of ``SECTIONS``, and every text must stay
    non-empty once normalized and occur once in its section. The first label
    that breaks the rule raises ``ValueError``. The merged texts are the
    normalized texts over both sections, presentation first, each text once
    where it first occurs.
    """

    by_section: dict[str, dict[str, None]] = {section: {} for section in SECTIONS}
    for text, section, _ in labels:
        if section not in SECTIONS:
            raise ValueError(f"unknown section {section!r}")
        normalized = normalize_label(text)
        if not normalized:
            raise ValueError(f"empty label {text!r} in {section}")
        if normalized in by_section[section]:
            raise ValueError(f"duplicate label {text!r} in {section}")
        by_section[section][normalized] = None
    presentation, qa = by_section.values()
    return tuple(dict.fromkeys([*presentation, *qa])), len(presentation), len(qa)


def period_name(index: int) -> str:
    """``str(corpus.YearQuarter)`` of the period ``index``: ``YYYYQn``."""

    year, quarter = divmod(index, 4)
    return f"{year:04d}Q{quarter + 1}"


@dataclass
class TargetColumns:
    """Target sets of one extraction method as columns, one entry per set, in any order.

    Set ``i`` is that of firm ``firms[i]`` in period index ``quarters[i]``.
    ``texts[i]`` are its merged texts and ``presentation[i]`` and ``qa[i]``
    its number of labels per section, as ``merge_sections`` gives them.
    """

    firms: list[str] = field(default_factory=list)
    quarters: list[int] = field(default_factory=list)
    texts: list[tuple[str, ...]] = field(default_factory=list)
    presentation: list[int] = field(default_factory=list)
    qa: list[int] = field(default_factory=list)

    def append(
        self, firm: str, quarter: int, texts: tuple[str, ...], presentation: int, qa: int
    ) -> None:
        self.firms.append(firm)
        self.quarters.append(quarter)
        self.texts.append(texts)
        self.presentation.append(presentation)
        self.qa.append(qa)

    @classmethod
    def of_sets(cls, target_sets: Sequence[TargetSet]) -> TargetColumns:
        columns = cls()
        for ts in target_sets:
            presentation = sum(label.section == SECTION_PRESENTATION for label in ts.labels)
            columns.append(
                ts.firm,
                ts.period.year * 4 + ts.period.quarter - 1,
                ts.texts,
                presentation,
                len(ts.labels) - presentation,
            )
        return columns
