"""Slots fixture: hot-path classes must declare __slots__."""

from dataclasses import dataclass


class Unslotted:
    def __init__(self) -> None:
        self.count = 0


@dataclass
class UnslottedRecord:
    count: int = 0
