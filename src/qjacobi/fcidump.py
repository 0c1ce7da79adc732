"""FCIDUMP reading and writing.

Integrals are kept in chemist notation (pq|rs) with 1-based spatial orbital
indices, stored once under a canonical representative of the 8-fold
permutation group.  Conflicting duplicate entries are rejected.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

_SYM_TOL = 1e-10


class FCIDumpError(ValueError):
    """Malformed FCIDUMP content; message carries the offending line number."""


def _canonical_one(p: int, q: int) -> tuple[int, int]:
    return (p, q) if p >= q else (q, p)


def _canonical_two(p: int, q: int, r: int, s: int) -> tuple[int, int, int, int]:
    pq = (p, q) if p >= q else (q, p)
    rs = (r, s) if r >= s else (s, r)
    return pq + rs if pq >= rs else rs + pq


# index swaps that carry the canonical keys onto every other index order; the
# pairs swap first, so each later swap reads entries already filled
_SWAPS = {2: ((1, 0),), 4: ((2, 3, 0, 1), (1, 0, 2, 3), (0, 1, 3, 2))}


@dataclass
class FCIDumpData:
    """Parsed FCIDUMP content (1-based spatial indices, chemist notation)."""

    n_spatial: int
    n_electrons: int
    ms2: int = 0
    core_energy: float = 0.0
    one_body: dict[tuple[int, int], float] = field(default_factory=dict)
    two_body: dict[tuple[int, int, int, int], float] = field(default_factory=dict)

    def dense_integrals(self) -> tuple[np.ndarray, ...]:
        """h_pq and (pq|rs) as arrays over 0-based orbitals, each value under
        every index order that shares its key (a zero entry takes its image's
        value).  ValueError names a key that is not canonical or not within
        1..n_spatial."""
        n, arrays = self.n_spatial, []
        for table, canonical, rank in ((self.one_body, _canonical_one, 2),
                                       (self.two_body, _canonical_two, 4)):
            dense = np.zeros((n,) * rank)
            for key, v in table.items():
                if len(key) != rank or canonical(*key) != key or not all(1 <= i <= n for i in key):
                    raise ValueError(f"integral key {key} is not canonical or not within 1..{n}")
                dense[tuple(i - 1 for i in key)] = v
            for axes in _SWAPS[rank]:
                dense = np.where(dense != 0, dense, dense.transpose(axes))
            arrays.append(dense)
        return tuple(arrays)


def _tokens(line: str) -> list[str]:
    return line.replace("D", "E").replace("d", "e").split()


def parse_fcidump(source) -> FCIDumpData:
    """Parse FCIDUMP text from a string or a file object.

    Raises FCIDumpError with a line number for malformed or inconsistent
    headers, non-numeric or non-finite fields, out-of-range indices or
    symmetry-conflicting duplicates.
    """
    text = source.read() if hasattr(source, "read") else source
    lines = text.splitlines()

    header_parts: list[str] = []
    body_start = None
    for ln, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if ln == 1 and not stripped.upper().startswith("&FCI"):
            raise FCIDumpError("line 1: missing &FCI header")
        header_parts.append(stripped)
        if "&END" in stripped.upper() or stripped.endswith("/"):
            body_start = ln
            break
    if body_start is None:
        raise FCIDumpError("line 1: header never terminated by &END or /")

    blob = " ".join(header_parts)
    blob = re.sub(r"&FCI", " ", blob, flags=re.I)
    blob = re.sub(r"&END|/", " ", blob, flags=re.I)
    fields: dict[str, str] = {}
    for m in re.finditer(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([^=]*?)(?=[,\s]*[A-Za-z_][A-Za-z0-9_]*\s*=|$)", blob):
        fields[m.group(1).upper()] = m.group(2).strip().rstrip(",")

    def _int_field(name: str, default=None) -> int:
        if name not in fields:
            if default is not None:
                return default
            raise FCIDumpError(f"line 1: header lacks {name}")
        try:
            return int(fields[name].split(",")[0])
        except ValueError as exc:
            raise FCIDumpError(f"line 1: non-integer {name}={fields[name]!r}") from exc

    norb = _int_field("NORB")
    nelec = _int_field("NELEC")
    ms2 = _int_field("MS2", default=0)
    if norb <= 0 or nelec <= 0:
        raise FCIDumpError("line 1: NORB and NELEC must be positive")
    if (nelec + ms2) % 2 or not (abs(ms2) <= nelec and nelec + abs(ms2) <= 2 * norb):
        raise FCIDumpError(f"line 1: NELEC={nelec}, MS2={ms2} give spin counts "
                           f"(NELEC +- MS2)/2 outside the integers 0..NORB={norb}")

    data = FCIDumpData(n_spatial=norb, n_electrons=nelec, ms2=ms2)

    def _store(table, key, value, ln):
        old = table.get(key)
        if old is not None and abs(old - value) > _SYM_TOL:
            raise FCIDumpError(f"line {ln}: integral conflicts with permutation symmetry "
                               f"({old!r} vs {value!r})")
        table[key] = value if old is None else old

    for ln, raw in enumerate(lines[body_start:], start=body_start + 1):
        if not raw.strip():
            continue
        toks = _tokens(raw)
        if len(toks) != 5:
            raise FCIDumpError(f"line {ln}: expected 'value i j k l', got {raw.strip()!r}")
        try:
            value = float(toks[0])
            i, j, k, l = (int(t) for t in toks[1:])
        except ValueError as exc:
            raise FCIDumpError(f"line {ln}: non-numeric field in {raw.strip()!r}") from exc
        if not math.isfinite(value):
            raise FCIDumpError(f"line {ln}: non-finite value in {raw.strip()!r}")
        for idx in (i, j, k, l):
            if idx < 0 or idx > norb:
                raise FCIDumpError(f"line {ln}: orbital index {idx} out of range 0..{norb}")
        if i == j == k == l == 0:
            data.core_energy = value
        elif i > 0 and j > 0 and k > 0 and l > 0:
            _store(data.two_body, _canonical_two(i, j, k, l), value, ln)
        elif i > 0 and j > 0 and k == 0 and l == 0:
            _store(data.one_body, _canonical_one(i, j), value, ln)
        elif i > 0 and j == k == l == 0:
            continue  # orbital-energy record, ignored
        else:
            raise FCIDumpError(f"line {ln}: unrecognized index pattern {(i, j, k, l)}")

    return data


def emit_fcidump(data: FCIDumpData) -> str:
    """Write canonical FCIDUMP text; parse(emit(parse(x))) is the identity."""
    out = io.StringIO()
    orbsym = ",".join("1" for _ in range(data.n_spatial))
    out.write(f"&FCI NORB={data.n_spatial},NELEC={data.n_electrons},MS2={data.ms2},\n")
    out.write(f"  ORBSYM={orbsym},\n  ISYM=1,\n&END\n")
    for key in sorted(data.two_body):
        out.write(f" {data.two_body[key]:23.16E} {key[0]:3d} {key[1]:3d} {key[2]:3d} {key[3]:3d}\n")
    for key in sorted(data.one_body):
        out.write(f" {data.one_body[key]:23.16E} {key[0]:3d} {key[1]:3d}   0   0\n")
    out.write(f" {data.core_energy:23.16E}   0   0   0   0\n")
    return out.getvalue()
