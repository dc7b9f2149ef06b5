"""Linear expressions and constraints for the MILP modelling layer.

The design mirrors the small core of modelling libraries like PuLP:
:class:`Var` atoms combine through Python arithmetic into
:class:`LinExpr` objects, and comparison operators build
:class:`Constraint` rows. Everything is immutable-by-convention; the
model owns variable registration and index assignment.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

from repro.errors import SolverError

Number = Union[int, float]
ExprLike = Union["Var", "LinExpr", Number]


class Var:
    """A decision variable.

    Attributes:
        name: Unique name inside its model.
        lower: Lower bound (may be ``-inf``).
        upper: Upper bound (may be ``+inf``).
        integer: Whether the variable is integrality-constrained.
        index: Column index assigned by the owning model.
    """

    __slots__ = ("name", "lower", "upper", "integer", "index")

    def __init__(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = float("inf"),
        integer: bool = False,
        index: int = -1,
    ) -> None:
        if lower > upper:
            raise SolverError(f"{name}: lower bound {lower} > upper bound {upper}")
        self.name = name
        self.lower = float(lower)
        self.upper = float(upper)
        self.integer = bool(integer)
        self.index = index

    @property
    def is_binary(self) -> bool:
        return self.integer and self.lower == 0.0 and self.upper == 1.0

    # -- arithmetic → LinExpr ------------------------------------------
    def _as_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other: ExprLike) -> "LinExpr":
        return self._as_expr() + other

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self._as_expr() + other

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self._as_expr() - other

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (-1.0) * self._as_expr() + other

    def __mul__(self, other: Number) -> "LinExpr":
        return self._as_expr() * other

    def __rmul__(self, other: Number) -> "LinExpr":
        return self._as_expr() * other

    def __neg__(self) -> "LinExpr":
        return self._as_expr() * -1.0

    # -- comparisons → Constraint --------------------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        return self._as_expr() <= other

    def __ge__(self, other: ExprLike) -> "Constraint":
        return self._as_expr() >= other

    def __eq__(self, other: object) -> "Constraint":  # type: ignore[override]
        if isinstance(other, (Var, LinExpr, int, float)):
            return self._as_expr() == other
        return NotImplemented  # type: ignore[return-value]

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        kind = "bin" if self.is_binary else ("int" if self.integer else "cont")
        return f"Var({self.name!r}, {kind}, [{self.lower}, {self.upper}])"


class LinExpr:
    """An affine expression ``sum coef_i * var_i + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(
        self, terms: Mapping[Var, float] | None = None, constant: float = 0.0
    ) -> None:
        self.terms: dict[Var, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    @staticmethod
    def from_(value: ExprLike) -> "LinExpr":
        """Coerce a var, expression, or number into a LinExpr."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Var):
            return LinExpr({value: 1.0}, 0.0)
        if isinstance(value, (int, float)):
            return LinExpr({}, float(value))
        raise SolverError(f"cannot build a linear expression from {value!r}")

    @staticmethod
    def total(items: Iterable[ExprLike]) -> "LinExpr":
        """Sum an iterable of expression-likes (like ``lpSum``).

        One pass into one dict: the same terms, in the same order and
        with the same floating-point additions as folding ``+`` left to
        right, without copying the accumulator at every step.
        """
        acc = LinExpr()
        terms = acc.terms
        for item in items:
            rhs = LinExpr.from_(item)
            for var, coef in rhs.terms.items():
                terms[var] = terms.get(var, 0.0) + coef
            acc.constant += rhs.constant
        return acc

    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.constant)

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other: ExprLike) -> "LinExpr":
        rhs = LinExpr.from_(other)
        out = self.copy()
        for var, coef in rhs.terms.items():
            out.terms[var] = out.terms.get(var, 0.0) + coef
        out.constant += rhs.constant
        return out

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self + other

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self + LinExpr.from_(other) * -1.0

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return LinExpr.from_(other) + self * -1.0

    def __mul__(self, factor: Number) -> "LinExpr":
        if not isinstance(factor, (int, float)):
            raise SolverError("expressions can only be scaled by numbers")
        return LinExpr(
            {v: c * float(factor) for v, c in self.terms.items()},
            self.constant * float(factor),
        )

    def __rmul__(self, factor: Number) -> "LinExpr":
        return self * factor

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- comparisons → Constraint --------------------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        return Constraint(self - LinExpr.from_(other), "<=")

    def __ge__(self, other: ExprLike) -> "Constraint":
        return Constraint(self - LinExpr.from_(other), ">=")

    def __eq__(self, other: object) -> "Constraint":  # type: ignore[override]
        if isinstance(other, (Var, LinExpr, int, float)):
            return Constraint(self - LinExpr.from_(other), "==")
        return NotImplemented  # type: ignore[return-value]

    def __hash__(self) -> int:
        return id(self)

    def value(self, assignment: Mapping[Var, float]) -> float:
        """Evaluate the expression under a variable assignment."""
        return self.constant + sum(
            coef * assignment[var] for var, coef in self.terms.items()
        )

    def __repr__(self) -> str:
        parts = [f"{c:+g}*{v.name}" for v, c in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in normalised form."""

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: str, name: str = "") -> None:
        if sense not in ("<=", ">=", "=="):
            raise SolverError(f"invalid constraint sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.name = name

    def named(self, name: str) -> "Constraint":
        """Return this constraint with a diagnostic name attached."""
        self.name = name
        return self

    def bounds(self) -> tuple[float, float]:
        """Row bounds ``(lb, ub)`` for ``sum coef*var`` (constant moved)."""
        rhs = -self.expr.constant
        if self.sense == "<=":
            return (-float("inf"), rhs)
        if self.sense == ">=":
            return (rhs, float("inf"))
        return (rhs, rhs)

    def satisfied(self, assignment: Mapping[Var, float], tol: float = 1e-6) -> bool:
        """Check the constraint under an assignment, within tolerance."""
        lhs = self.expr.value(assignment)
        if self.sense == "<=":
            return lhs <= tol
        if self.sense == ">=":
            return lhs >= -tol
        return abs(lhs) <= tol

    def __repr__(self) -> str:
        label = f"[{self.name}] " if self.name else ""
        return f"{label}{self.expr!r} {self.sense} 0"
