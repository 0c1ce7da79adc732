import pytest

from qjacobi.fcidump import FCIDumpError, emit_fcidump, parse_fcidump

MINIMAL = """&FCI NORB=2,NELEC=2,MS2=0,
  ORBSYM=1,1,
  ISYM=1,
&END
  0.5    1 1 1 1
 -1.25   1 1 0 0
  0.3    0 0 0 0
"""


def test_two_body_line():
    data = parse_fcidump(MINIMAL)
    assert data.two(1, 1, 1, 1) == 0.5


def test_one_body_line():
    data = parse_fcidump(MINIMAL)
    assert data.one(1, 1) == -1.25


def test_core_energy_line():
    data = parse_fcidump(MINIMAL)
    assert data.core_energy == 0.3


def test_header_fields():
    data = parse_fcidump(MINIMAL)
    assert (data.n_spatial, data.n_electrons, data.ms2) == (2, 2, 0)


def test_eightfold_symmetry_lookup():
    text = "&FCI NORB=3,NELEC=2,MS2=0,&END\n 0.7 2 1 3 2\n 0.0 0 0 0 0\n"
    data = parse_fcidump(text)
    for pqrs in [(2, 1, 3, 2), (1, 2, 3, 2), (2, 1, 2, 3), (1, 2, 2, 3),
                 (3, 2, 2, 1), (2, 3, 2, 1), (3, 2, 1, 2), (2, 3, 1, 2)]:
        assert data.two(*pqrs) == 0.7


def test_roundtrip(h2_data):
    text = emit_fcidump(h2_data)
    again = parse_fcidump(text)
    assert again == h2_data
    assert emit_fcidump(again) == text


def test_fortran_exponents_and_whitespace():
    text = "&FCI NORB=1, NELEC=1, MS2=1,\n&END\n   -1.0D0   1   1   0 0\n 0.0 0 0 0 0\n"
    data = parse_fcidump(text)
    assert data.one(1, 1) == -1.0


def test_orbital_energy_records_ignored():
    text = "&FCI NORB=2,NELEC=2,MS2=0,&END\n -0.5 1 0 0 0\n 0.0 0 0 0 0\n"
    data = parse_fcidump(text)
    assert not data.one_body


def test_missing_header_rejected():
    with pytest.raises(FCIDumpError, match="line 1"):
        parse_fcidump("1.0 1 1 0 0\n")


def test_nonnumeric_field_reports_line():
    text = "&FCI NORB=2,NELEC=2,MS2=0,&END\n oops 1 1 0 0\n"
    with pytest.raises(FCIDumpError, match="line 2"):
        parse_fcidump(text)


def test_index_out_of_range_reports_line():
    text = "&FCI NORB=2,NELEC=2,MS2=0,&END\n 1.0 1 1 0 0\n 1.0 3 1 0 0\n"
    with pytest.raises(FCIDumpError, match="line 3"):
        parse_fcidump(text)


def test_symmetry_conflict_rejected():
    text = "&FCI NORB=2,NELEC=2,MS2=0,&END\n 1.0 1 2 0 0\n 0.9 2 1 0 0\n"
    with pytest.raises(FCIDumpError, match="symmetry"):
        parse_fcidump(text)


def test_malformed_index_pattern_rejected():
    text = "&FCI NORB=2,NELEC=2,MS2=0,&END\n 1.0 1 2 2 0\n"
    with pytest.raises(FCIDumpError, match="line 2"):
        parse_fcidump(text)


@pytest.mark.parametrize("header", [
    "NORB=2,NELEC=2,MS2=1",   # NELEC + MS2 odd
    "NORB=2,NELEC=5,MS2=1",   # 3 alpha electrons in 2 orbitals
    "NORB=2,NELEC=2,MS2=4",   # -1 beta electrons
    "NORB=2,NELEC=2,MS2=-4",  # -1 alpha electrons
    "NORB=2,NELEC=5,MS2=0",   # odd NELEC with the default MS2
])
def test_inconsistent_spin_header_rejected(header):
    with pytest.raises(FCIDumpError, match="line 1"):
        parse_fcidump(f"&FCI {header},&END\n 1.0 1 1 0 0\n")


@pytest.mark.parametrize("header, counts", [
    ("NORB=2,NELEC=4,MS2=0", (2, 4, 0)),   # both spin shells full
    ("NORB=2,NELEC=2,MS2=-2", (2, 2, -2)),  # two beta, no alpha electrons
])
def test_spin_header_at_bounds_accepted(header, counts):
    data = parse_fcidump(f"&FCI {header},&END\n 1.0 1 1 0 0\n")
    assert (data.n_spatial, data.n_electrons, data.ms2) == counts
