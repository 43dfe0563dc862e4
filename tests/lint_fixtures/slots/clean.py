"""Slots fixture: slotted classes, plus the exempt categories."""

from dataclasses import dataclass
from enum import Enum


class Slotted:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


@dataclass(slots=True)
class SlottedRecord:
    count: int = 0


class Mode(Enum):
    PULL = "pull"


class CacheMissError(Exception):
    pass
