"""Mod-p cohomology of the Whitehead spectrum of a point, as graded
dimensions assembled from Steenrod-module pieces.

At an odd regular prime the cohomology splits into the suspended
cokernel-of-J piece, the suspended quaternionic projective piece, and a
block assembled (up to an extension, which preserves graded dimension)
from the cokernel and shifted kernel of a connecting homomorphism
delta*.  delta* maps a sum of shifted copies of A//E_1, one for each
even cell of the p-local splitting of real connective K-theory, into the
eigensummands of the cohomology of the suspended stunted projective
spectrum; its cokernel and kernel reduce to annihilator-ideal quotients
computed in `steenrod`.

Only graded dimensions and structural annotations are produced; the full
module structure of the total is determined only up to extension and is
deliberately not assembled.
"""

from .arith import OddPrime, ensure_regular
from .errors import InconsistencyError, PreconditionError
from .steenrod import quotient_module_dims

SIGMA_C_PIECE = "H(sigma c)"
HP_PIECE = "H(sigma HP)"
COKER_MAIN_PIECE = "sigma^-2 C/A(b,Q1)"


def _shifted(
    p: OddPrime, spec: str, max_degree: int, shift: int, a: int | None = None
) -> dict[int, int]:
    """Dims of the named quotient moved by `shift`, in degrees <= max_degree."""
    if max_degree < shift:
        return {}
    dims = quotient_module_dims(p, spec, max_degree - shift, a=a)
    out = {}
    for d, dim in dims.items():  # in ascending degree
        if d + shift < 0:
            raise InconsistencyError(
                f"graded piece reaches negative degree {d + shift} after shift"
            )
        out[d + shift] = dim
    return out


def _add(*parts: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in parts:
        for d, v in part.items():
            out[d] = out.get(d, 0) + v
    return {d: out[d] for d in sorted(out)}


def h_sigma_c_dims(p: OddPrime, max_degree: int) -> dict[int, int]:
    """Dims of the cohomology of the suspended cokernel-of-J spectrum:
    an extension of a shifted copy of A//A_1 by I(A)/A(b,P1), so the
    dimensions add."""
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be >= 0, got {max_degree}")
    sub = quotient_module_dims(p, "I(A)/A(b,P1)", max_degree)
    return _add(sub, _shifted(p, "A//A1", max_degree, p.p * p.q - 1))


def h_sigma_hp_dims(p: OddPrime, max_degree: int) -> dict[int, int]:
    """One class in each degree 4m+1, m >= 1: the suspension of the
    polynomial classes of the quaternionic projective space."""
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be >= 0, got {max_degree}")
    return {d: 1 for d in range(5, max_degree + 1, 4)}


def _odd_summand_indices(p: OddPrime) -> range:
    """The odd a with 1 <= a <= p-4 (empty for p = 3)."""
    return range(1, p.p - 3, 2)


def _piece_table(p: OddPrime, top: int) -> dict:
    """The report's pieces to degree `top` in report order, by `--piece`
    group: each maps to a function that forms its (name, dims) pairs, names
    included, only when called.  CP[a] starts at y^a in degree 2a, so its
    piece at 2a+1; CP[a] and kernel pieces above `top` stay empty unbuilt."""
    odd = _odd_summand_indices(p)
    return {
        "sigma-c": lambda: [(SIGMA_C_PIECE, h_sigma_c_dims(p, top))],
        "hp": lambda: [(HP_PIECE, h_sigma_hp_dims(p, top))],
        "coker": lambda: [
            (COKER_MAIN_PIECE, _shifted(p, "C/A(b,Q1)", top, -2)),
            *((f"H(sigma CP[{a}])/A(sigma y^{a})",
               _shifted(p, "CP[a]/A(y^a)", top, 1, a)
               if 2 * a + 1 <= top else {})
              for a in odd),
        ],
        "ker": lambda: [
            (f"sigma^{2 * a} C_{a}/A(b,Q1)",
             _shifted(p, "C_a/A(b,Q1)", top, 2 * a, a))
            for a in odd
        ],
    }


def delta_star_report(p: OddPrime, max_degree: int) -> dict:
    """Named graded dimensions of cok(delta*) and of the shifted kernel
    block sigma^-1 ker(delta*), each as {piece name: {degree: dim}}."""
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be >= 0, got {max_degree}")
    table = _piece_table(p, max_degree)
    return {group: dict(table[group]()) for group in ("coker", "ker")}


def delta_star_rank_data(p: OddPrime, max_degree: int) -> dict:
    """Source and target dims of delta* itself, each summed over its pieces
    into {degree: dim}, for consistency checks: in every degree,
    cok - ker = target - source, and below 2p-2 the map is injective so
    cok = target - source there."""
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be >= 0, got {max_degree}")
    source = _add(*(
        _shifted(p, "A//E1", max_degree, 4 * i - 1)
        for i in range(1, (p.p - 1) // 2 + 1)
    ))
    target = _add(_shifted(p, "C/A(b)", max_degree, -2), *(
        {2 * k + 1: 1 for k in range(a, (max_degree - 1) // 2 + 1, p.p - 1)}
        for a in _odd_summand_indices(p)
    ))
    return {"source": source, "target": target}


def h_wh_report(
    p: OddPrime, max_degree: int, *, piece: str = "all",
    assume_regular: bool = False,
) -> dict:
    """Graded-dimension report, as the `cohomology-report` payload.  For a
    `--piece` group `piece` only its pieces are built and reported; "all"
    reports every piece and their total, "total" the total alone.  Each
    maps int degrees, ascending, to dimensions; total(d) is the sum of the
    pieces, since the assembling extensions preserve dimension.  The
    degrees become decimal strings only in JSON."""
    table = _piece_table(p, max_degree)
    whole = piece in ("all", "total")
    if not whole and piece not in table:
        raise PreconditionError(f"unknown piece {piece!r}")
    assumptions = ensure_regular(p, assume_regular)
    if max_degree < 0:
        raise PreconditionError(f"max_degree must be >= 0, got {max_degree}")
    groups = table if whole else (piece,)
    pieces = {name: dims for g in groups for name, dims in table[g]()}
    annotations = [
        f"degrees below {p.q - 1} have no independent cross-check; "
        f"values there are engine-derived",
    ]
    if p.p == 3:
        annotations.append(
            "all pieces are direct summands: the assembling extension is "
            "trivial at p=3"
        )
    else:
        annotations.append(
            "the extension gluing the kernel block onto the "
            "stunted-projective block is nontrivial"
        )
        annotations.append(
            f"a nontrivial mod-p Bockstein relates sigma^2 P2, the bottom "
            f"of the kernel block, to sigma y^{2 * p.p - 1} in the "
            f"stunted-projective block"
        )
    total = {"total": _add(*pieces.values())} if whole else {}
    return {
        "kind": "cohomology-report",
        "p": p.p,
        "max_degree": max_degree,
        "assumptions": list(assumptions),
        "pieces": {} if piece == "total" else pieces,
        **total,
        "annotations": annotations,
    }
