"""Keeps DESIGN.md's "Wire protocol" table in step with ``aio._COMMANDS``.

One row per wire command, in table order, with the payload, mutating
and batch columns the command table declares; and the reserved key
names are the ones ``netkv`` uses.
"""

import os
import re

from repro.datastore import aio, netkv

DOC = os.path.join(os.path.dirname(__file__), "..", "DESIGN.md")

with open(DOC, encoding="utf-8") as fh:
    SECTION = fh.read().split("### Wire protocol\n", 1)[1].split("\n### ", 1)[0]

# | `CMD` | header | payload | reply | mutating | batch |
ROWS = [[cell.strip() for cell in line.strip("|").split("|")]
        for line in SECTION.splitlines() if line.startswith("| `")]


def test_one_row_per_command_in_table_order():
    assert [row[0].strip("`") for row in ROWS] == [
        c.word for c in aio._COMMANDS]


def test_flags_match_the_command_table():
    for row, command in zip(ROWS, aio._COMMANDS):
        assert (row[2] != "no", row[4], row[5]) == (
            command.payload,
            "yes" if command.mutating else "no",
            "yes" if command.empty is not None else "no"), command.word


def test_reserved_keys_are_named():
    for key in (netkv._ROUTE_KEY, netkv._TOMB, netkv._MISSED):
        assert f"`{key}" in SECTION
