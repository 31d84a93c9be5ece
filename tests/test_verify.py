"""The verify suite's elimination oracle against the quotient series."""

import pytest

from whcalc import verify as vf
from whcalc.arith import OddPrime


@pytest.mark.parametrize("pp", [3, 5, 7])
def test_basis_counts_deep(pp):
    vf._check_basis_counts(OddPrime(pp), deep=True)


def test_basis_counts_catches_an_off_by_one_series(monkeypatch):
    real = vf.quotient_module_dims

    def mutated(p, spec, max_degree, a=None):
        dims = real(p, spec, max_degree, a=a)
        if spec == "A//E1":
            dims[17] += 1  # the class of tau_2 at p=3
        return dims

    monkeypatch.setattr(vf, "quotient_module_dims", mutated)
    rows = {r.name: r for r in vf.run_checks([OddPrime(3)])}
    assert rows["basis-counts"].status == vf.FAIL
    assert rows["basis-counts"].detail.startswith("A(b,Q1) has rank 3 in degree 17")
