"""Parametric SAN compilation: explore once, re-stamp rates per parameter set.

Parameter studies (the paper's Figs. 9-12) evaluate whole families of
models that differ only in *rates* — the reachable state space and the
transition structure are identical across every curve.  This module
factors that observation into code:

1. A tiny expression AST (:class:`ParamExpr`) lets model builders record
   each activity rate and case probability as a *symbolic* function of
   named parameters instead of a baked-in float.
2. :func:`compile_parametric` explores the reachability graph **once**
   with symbolic edge values, producing a :class:`ParametricSAN`
   template: the tangible/vanishing markings, the edge lists, a
   deduplicated coefficient table ``c_i(p)`` and per-edge coefficient
   indices.  Together these are the affine factorization
   ``Q(p) = sum_i c_i(p) * B_i`` where ``B_i`` is the 0/1 incidence
   pattern of coefficient ``i``.
3. :meth:`ParametricSAN.instantiate` turns a new parameter environment
   into a :class:`~repro.san.ctmc_builder.CompiledSAN` by re-evaluating
   the coefficient table (a handful of scalar expressions), gathering
   per-edge values, and replaying the *same* vanishing-elimination and
   generator-assembly code the concrete build uses.

**Bitwise guarantee.**  Every floating-point operation of the concrete
build is replayed in the same order: expression evaluation mirrors the
arithmetic of :meth:`~repro.san.activities._ActivityBase.case_probabilities`
(including its clamp), edge values are the same single ``rate * prob``
products, and elimination/assembly go through the shared
:func:`~repro.san.reachability.eliminate_vanishing` /
:meth:`~repro.ctmc.chain.CTMC.from_rates` code paths.  A re-stamped
generator, initial distribution, and reward vector are therefore
**bitwise identical** to a fresh ``build_ctmc(build_model(params))`` —
not merely close — so downstream solvers see indistinguishable inputs.

**Structure keys.**  Exploration prunes zero-probability cases, so the
*shape* of the graph depends on which case probabilities vanish (e.g.
coverage ``c == 1`` removes the AT-escape branch).  A template records
the boolean decision pattern it was compiled under; instantiating with
parameters whose pattern differs raises :class:`TemplateMismatchError`,
and callers fall back to compiling a second template for the new
structure class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

import scipy.sparse as sp

from repro.ctmc.chain import CTMC, assemble_generator
from repro.ctmc.linalg import validate_distribution
from repro.san.ctmc_builder import CompiledSAN
from repro.san.errors import ModelStructureError, StateSpaceError
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.reachability import (
    DEFAULT_MAX_MARKINGS,
    ReachabilityGraph,
    eliminate_vanishing,
)
from repro.san.reachability import _PROB_EPS

#: Tolerances mirrored from :mod:`repro.san.activities` so symbolic
#: validation accepts and rejects exactly what the concrete path does.
_PROB_ATOL = 1e-9
_SUM_ATOL = 1e-6


class ParametricError(ModelStructureError):
    """A model cannot be compiled parametrically (e.g. a builder performs
    arithmetic the expression AST does not support)."""


class TemplateMismatchError(ParametricError):
    """A parameter environment does not fit a template's structure class
    (a case probability changed zero-ness, or a validation the concrete
    build performs would fail)."""


# ----------------------------------------------------------------------
# Expression AST
# ----------------------------------------------------------------------
class ParamExpr:
    """A symbolic scalar over named parameters.

    Nodes are immutable, structurally hashable (for coefficient
    deduplication), and evaluate with exactly the floating-point
    operations their construction spells out — ``Sub(1.0, p)`` is one
    subtraction, not an algebraic rewrite — so evaluation replays the
    concrete builder's arithmetic bit for bit.
    """

    __slots__ = ()

    def evaluate(self, env: dict) -> float:
        raise NotImplementedError

    def structure(self) -> tuple:
        """Nested-tuple structural identity (dedup key)."""
        raise NotImplementedError

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return Add(self, wrap(other))

    def __radd__(self, other):
        return Add(wrap(other), self)

    def __sub__(self, other):
        return Sub(self, wrap(other))

    def __rsub__(self, other):
        return Sub(wrap(other), self)

    def __mul__(self, other):
        return Mul(self, wrap(other))

    def __rmul__(self, other):
        return Mul(wrap(other), self)

    def __truediv__(self, other):
        return Div(self, wrap(other))

    def __rtruediv__(self, other):
        return Div(wrap(other), self)

    def __neg__(self):
        return Sub(Const(0.0), self)

    # -- identity -------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, ParamExpr) and self.structure() == other.structure()
        )

    def __hash__(self):
        return hash(self.structure())

    def _ordering_error(self):
        return ParametricError(
            f"cannot order symbolic expression {self!r}; declare the "
            "parameter with assume_positive or build the model concretely"
        )

    def __lt__(self, other):
        raise self._ordering_error()

    def __le__(self, other):
        raise self._ordering_error()

    def __gt__(self, other):
        raise self._ordering_error()

    def __ge__(self, other):
        raise self._ordering_error()


class Const(ParamExpr):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("ParamExpr nodes are immutable")

    def evaluate(self, env: dict) -> float:
        return self.value

    def structure(self) -> tuple:
        return ("const", self.value)

    def __repr__(self):
        return f"{self.value:g}"


class Param(ParamExpr):
    """A named model parameter.

    ``assume_positive`` lets builder-side sanity checks of the form
    ``rate <= 0`` pass symbolically for parameters whose domain is
    validated elsewhere (every :class:`~repro.gsu.parameters.GSUParameters`
    rate is strictly positive by construction).
    """

    __slots__ = ("name", "assume_positive")

    def __init__(self, name: str, assume_positive: bool = False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "assume_positive", bool(assume_positive))

    def __setattr__(self, name, value):
        raise AttributeError("ParamExpr nodes are immutable")

    def evaluate(self, env: dict) -> float:
        try:
            return env[self.name]
        except KeyError:
            raise ParametricError(
                f"parameter {self.name!r} missing from environment"
            ) from None

    def structure(self) -> tuple:
        return ("param", self.name)

    def __le__(self, other):
        if self.assume_positive and isinstance(other, (int, float)) and other <= 0:
            return False
        raise self._ordering_error()

    def __lt__(self, other):
        if self.assume_positive and isinstance(other, (int, float)) and other <= 0:
            return False
        raise self._ordering_error()

    def __gt__(self, other):
        if self.assume_positive and isinstance(other, (int, float)) and other <= 0:
            return True
        raise self._ordering_error()

    def __ge__(self, other):
        if self.assume_positive and isinstance(other, (int, float)) and other <= 0:
            return True
        raise self._ordering_error()

    def __repr__(self):
        return self.name


class _Binary(ParamExpr):
    __slots__ = ("left", "right")
    _tag = ""

    def __init__(self, left: ParamExpr, right: ParamExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("ParamExpr nodes are immutable")

    def structure(self) -> tuple:
        return (self._tag, self.left.structure(), self.right.structure())

    def __repr__(self):
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[self._tag]
        return f"({self.left!r} {op} {self.right!r})"


class Add(_Binary):
    __slots__ = ()
    _tag = "add"

    def evaluate(self, env: dict) -> float:
        return self.left.evaluate(env) + self.right.evaluate(env)


class Sub(_Binary):
    __slots__ = ()
    _tag = "sub"

    def evaluate(self, env: dict) -> float:
        return self.left.evaluate(env) - self.right.evaluate(env)


class Mul(_Binary):
    __slots__ = ()
    _tag = "mul"

    def evaluate(self, env: dict) -> float:
        return self.left.evaluate(env) * self.right.evaluate(env)


class Div(_Binary):
    __slots__ = ()
    _tag = "div"

    def evaluate(self, env: dict) -> float:
        return self.left.evaluate(env) / self.right.evaluate(env)


class Clamp01(ParamExpr):
    """``max(0.0, min(1.0, x))`` — the exact probability clamp of
    :meth:`~repro.san.activities._ActivityBase.case_probabilities`."""

    __slots__ = ("inner",)

    def __init__(self, inner: ParamExpr):
        object.__setattr__(self, "inner", inner)

    def __setattr__(self, name, value):
        raise AttributeError("ParamExpr nodes are immutable")

    def evaluate(self, env: dict) -> float:
        return max(0.0, min(1.0, self.inner.evaluate(env)))

    def structure(self) -> tuple:
        return ("clamp01", self.inner.structure())

    def __repr__(self):
        return f"clamp01({self.inner!r})"


def wrap(value) -> ParamExpr:
    """Coerce a number (or pass through an expression) to a node."""
    if isinstance(value, ParamExpr):
        return value
    if isinstance(value, (int, float)):
        return Const(value)
    raise ParametricError(
        f"cannot use {type(value).__name__} in a symbolic rate expression"
    )


def _symbolic_md(value, marking: Marking) -> ParamExpr:
    """Symbolic mirror of :func:`~repro.san.activities.evaluate_marking_dependent`."""
    result = value(marking) if callable(value) else value
    return wrap(result)


def referenced_parameters(expr: ParamExpr) -> frozenset[str]:
    """The names of every parameter an expression actually reads.

    Walks the :meth:`ParamExpr.structure` tuples (no isinstance ladder,
    so it works on any node — including future ones — that honours the
    structural contract).  Surrogate fitting uses this to reject dead
    box axes: a declared fit dimension no rate expression references
    would silently waste a whole tensor axis on a constant.
    """
    names: set[str] = set()
    stack = [expr.structure()]
    while stack:
        node = stack.pop()
        tag = node[0]
        if tag == "param":
            names.add(node[1])
        elif tag != "const":
            stack.extend(node[1:])
    return frozenset(names)


# ----------------------------------------------------------------------
# Template
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParametricSAN:
    """A SAN compiled once per *structure*, re-stampable per parameter set.

    Attributes
    ----------
    model_name:
        Name of the source model.
    markings / vanishing_markings:
        The tangible and vanishing markings in exploration order — the
        state-space part of the template, shared by every instantiation.
    initial_tangible / initial_vanishing:
        Classification of the initial marking (exactly one is set).
    coefficients:
        Deduplicated symbolic edge values ``c_i(p)``.
    t_edges / v_edges:
        ``(src, dst_is_vanishing, dst, coefficient_index)`` tuples in
        exploration order — the incidence part of the factorization
        ``Q(p) = sum_i c_i(p) * B_i`` (tangible edges are rates,
        vanishing edges are resolution probabilities).
    decisions:
        ``coefficient_index -> bool`` — whether each case-probability
        coefficient was nonzero when the template was compiled.  The
        structural fingerprint: an environment whose pattern differs
        belongs to a different template.
    positivity / probability_bounds / probability_sums:
        The validation sites of the concrete build (rate/weight
        positivity, case-probability bounds, case distributions summing
        to one), replayed against every new environment.
    """

    model_name: str
    markings: tuple[Marking, ...]
    vanishing_markings: tuple[Marking, ...]
    initial_tangible: int | None
    initial_vanishing: int | None
    coefficients: tuple[ParamExpr, ...]
    t_edges: tuple[tuple[int, bool, int, int], ...]
    v_edges: tuple[tuple[int, bool, int, int], ...]
    decisions: tuple[tuple[int, bool], ...]
    positivity: tuple[int, ...]
    probability_bounds: tuple[int, ...]
    probability_sums: tuple[tuple[int, ...], ...]
    reward_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        # Label list and marking index are structural, so one copy is
        # shared (read-only) by every chain this template stamps out.
        object.__setattr__(self, "_labels", list(self.markings))
        object.__setattr__(
            self, "_label_index", {m: i for i, m in enumerate(self.markings)}
        )
        # Vectorized re-stamp plan, built (and verified bitwise against
        # the reference path) on first instantiation.
        object.__setattr__(self, "_stamp_plan", None)

    @property
    def num_states(self) -> int:
        """Number of tangible states."""
        return len(self.markings)

    def parameter_names(self) -> frozenset[str]:
        """Every parameter name referenced by this template's rates."""
        names: set[str] = set()
        for expr in self.coefficients:
            names |= referenced_parameters(expr)
        return frozenset(names)

    # ------------------------------------------------------------------
    def _evaluate_coefficients(self, env: dict) -> list[float]:
        return [expr.evaluate(env) for expr in self.coefficients]

    def _check(self, values: list[float]) -> str | None:
        """Why ``values`` does not fit this structure class (or ``None``)."""
        for index in self.positivity:
            if values[index] <= 0.0:
                return (
                    f"rate/weight coefficient {self.coefficients[index]!r} "
                    f"is non-positive ({values[index]:g})"
                )
        for index in self.probability_bounds:
            value = values[index]
            if value < -_PROB_ATOL or value > 1.0 + _PROB_ATOL:
                return (
                    f"case probability {self.coefficients[index]!r} = "
                    f"{value:g} outside [0, 1]"
                )
        for group in self.probability_sums:
            total = sum(values[index] for index in group)
            if abs(total - 1.0) > _SUM_ATOL:
                return f"case probabilities sum to {total:g}, expected 1"
        for index, expected in self.decisions:
            if (values[index] > 0.0) != expected:
                return (
                    f"case probability {self.coefficients[index]!r} changed "
                    f"zero-ness (structure class differs)"
                )
        return None

    def instantiate(
        self,
        env: dict,
        model: SANModel | None = None,
        model_factory=None,
    ) -> CompiledSAN:
        """Re-stamp the template with concrete parameter values.

        ``model`` is the concretely built :class:`SANModel` for the same
        parameters (cheap to construct — no exploration happens); it is
        attached to the result so activity-addressed rewards (impulse
        completions, throughputs) keep working.  Passing a zero-argument
        ``model_factory`` instead defers that build to first access —
        the fast path for parameter studies, whose rate-reward measures
        never touch the model.

        Raises
        ------
        TemplateMismatchError
            If ``env`` does not fit this template's structure class.
        """
        values = self._evaluate_coefficients(env)
        problem = self._check(values)
        if problem is not None:
            raise TemplateMismatchError(
                f"template {self.model_name!r} does not fit: {problem}"
            )
        gathered = np.asarray(values, dtype=np.float64)
        plan = self._stamp_plan
        if plan is None:
            plan = _build_stamp_plan(self, gathered, model, model_factory)
            object.__setattr__(self, "_stamp_plan", plan)
        if plan is not _PLAN_UNSUPPORTED:
            try:
                return plan.stamp(gathered, model, model_factory)
            except _StampMismatch:
                # The environment deviates from the plan's numeric masks
                # (an edge crossed the elimination epsilon, a rate
                # underflowed): replay the reference path, which handles
                # every such case exactly as a fresh build would.
                pass
        return self._instantiate_reference(gathered, model, model_factory)

    def _instantiate_reference(
        self,
        gathered: np.ndarray,
        model: SANModel | None,
        model_factory=None,
    ) -> CompiledSAN:
        """Re-stamp by replaying the shared elimination + assembly path.

        This is the semantic definition of a re-stamp: gather per-edge
        values from the coefficient table, then run the *same*
        vanishing-elimination and generator-assembly code the concrete
        build uses, bit for bit.  :class:`_StampPlan` is a vectorized
        replay of exactly this method; any environment the plan cannot
        prove it handles falls back here.
        """
        t_edges = [
            (src, dst_vanishing, dst, float(gathered[index]))
            for src, dst_vanishing, dst, index in self.t_edges
        ]
        v_edges = [
            (src, dst_vanishing, dst, float(gathered[index]))
            for src, dst_vanishing, dst, index in self.v_edges
        ]
        graph = eliminate_vanishing(
            self.model_name,
            list(self.markings),
            list(self.vanishing_markings),
            self.initial_tangible,
            self.initial_vanishing,
            t_edges,
            v_edges,
        )
        # Same assembly code as ``CTMC.from_rates``; the pure generator
        # re-validation is skipped and the label index is shared across
        # instantiations (see ``CTMC.from_assembled``).
        q = assemble_generator(graph.num_states, graph.rates)
        chain = CTMC.from_assembled(
            q, graph.initial_distribution, self._labels, self._label_index
        )
        return CompiledSAN(
            model=model,
            graph=graph,
            chain=chain,
            reward_cache=self.reward_cache,
            model_factory=model_factory,
        )


# ----------------------------------------------------------------------
# Vectorized re-stamping
# ----------------------------------------------------------------------
class _PlanUnusable(Exception):
    """The template's structure cannot be re-stamped by index arrays
    (vanishing initial marking, or a vanishing-to-vanishing loop that
    needs the linear solve)."""


class _StampMismatch(Exception):
    """An environment deviates from the plan's recorded numeric masks;
    the caller must fall back to the reference path."""


#: Sentinel stored on templates whose plan construction (or bitwise
#: self-verification) failed — instantiation then always takes the
#: reference path.
_PLAN_UNSUPPORTED = object()


class _StampPlan:
    """Precomputed index arrays that replay a re-stamp as scatter-adds.

    The reference re-stamp (:meth:`ParametricSAN._instantiate_reference`)
    walks Python loops over edge lists and dictionaries.  All of its
    *structure* — which edges survive the elimination epsilon, the
    stable sort that dedups the resolution matrix ``X``, the first-
    occurrence order of ``(src, dst)`` rate keys, the final CSR
    permutation — is identical for every environment in the template's
    structure class.  This plan computes that structure once and reduces
    each subsequent re-stamp to a handful of vectorized gathers and
    ``np.add.at`` scatter-adds.

    **Bitwise discipline.**  Every floating-point operation happens in
    the reference path's exact order: ``np.add.at`` accumulates
    sequentially in index order, which matches both the dict
    accumulation (``rates.get(key, 0.0) + rate``) and the explicit
    triplet dedup of :func:`~repro.san.reachability._csr_from_triplets`.
    Each expanded edge performs the same single ``rate * prob`` product.
    On construction the plan is verified bitwise against the reference
    path at the anchor environment; environments whose epsilon masks or
    sign patterns deviate raise :class:`_StampMismatch` and are replayed
    on the reference path instead.
    """

    def __init__(self, template: ParametricSAN, values: np.ndarray):
        if template.initial_tangible is None:
            raise _PlanUnusable("vanishing initial marking")
        self.template = template
        n_t = template.num_states
        n_v = len(template.vanishing_markings)
        self.n_t, self.n_v = n_t, n_v

        v_edges = template.v_edges
        self.v_eid = np.array([e[3] for e in v_edges], dtype=np.intp)
        v_src = np.array([e[0] for e in v_edges], dtype=np.intp)
        v_is_vanishing = np.array([e[1] for e in v_edges], dtype=bool)
        v_dst = np.array([e[2] for e in v_edges], dtype=np.intp)
        self.v_mask = values[self.v_eid] > _PROB_EPS
        if np.any(self.v_mask & v_is_vanishing):
            raise _PlanUnusable(
                "vanishing-to-vanishing edges require the linear solve"
            )
        # X = P_vt directly (no vanishing-to-vanishing mass): dedup the
        # surviving edges exactly as _csr_from_triplets does — stable
        # (row, col) lexsort, sequential in-order accumulation.
        rows = v_src[self.v_mask]
        cols = v_dst[self.v_mask]
        self.v_gather = self.v_eid[self.v_mask]
        self.v_order = np.lexsort((cols, rows))
        r, c = rows[self.v_order], cols[self.v_order]
        if r.size:
            first = np.empty(r.size, dtype=bool)
            first[0] = True
            first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            self.x_gid = np.cumsum(first) - 1
            self.x_rows = r[first]
            x_cols = c[first]
        else:
            self.x_gid = np.zeros(0, dtype=np.intp)
            self.x_rows = np.zeros(0, dtype=np.intp)
            x_cols = np.zeros(0, dtype=np.intp)
        self.nx = int(self.x_rows.size)
        if n_v and self.nx == 0:
            raise _PlanUnusable("no surviving vanishing-resolution edges")
        x_indptr = np.zeros(n_v + 1, dtype=np.intp)
        if self.nx:
            np.cumsum(np.bincount(self.x_rows, minlength=n_v), out=x_indptr[1:])
        x_data = np.zeros(self.nx)
        np.add.at(x_data, self.x_gid, values[self.v_gather][self.v_order])
        self.x_eps = x_data > _PROB_EPS

        # Contribution table: one row per term of the reference
        # rate-folding loop, in that loop's exact order.  Rate keys are
        # numbered by first occurrence — the dict insertion order of the
        # reference path.
        key_index: dict[tuple[int, int], int] = {}
        key_pairs: list[tuple[int, int]] = []
        ck: list[int] = []
        ce: list[int] = []
        cx: list[int] = []

        def key_slot(src: int, dst: int) -> int:
            slot = key_index.get((src, dst))
            if slot is None:
                slot = key_index[(src, dst)] = len(key_pairs)
                key_pairs.append((src, dst))
            return slot

        for src, dst_vanishing, dst, eid in template.t_edges:
            if not dst_vanishing:
                if src == dst:
                    continue
                ck.append(key_slot(src, dst))
                ce.append(eid)
                cx.append(-1)
                continue
            for pos in range(int(x_indptr[dst]), int(x_indptr[dst + 1])):
                t_idx = int(x_cols[pos])
                if src == t_idx or not self.x_eps[pos]:
                    continue
                ck.append(key_slot(src, t_idx))
                ce.append(eid)
                cx.append(pos)
        self.key_pairs = key_pairs
        self.nk = len(key_pairs)
        self.ck = np.asarray(ck, dtype=np.intp)
        self.ce = np.asarray(ce, dtype=np.intp)
        cx_arr = np.asarray(cx, dtype=np.intp)
        self.hasx = cx_arr >= 0
        self.cx = cx_arr[self.hasx]
        self.any_x = bool(self.cx.size)
        self.key_src = np.array([k[0] for k in key_pairs], dtype=np.intp)
        key_dst = np.array([k[1] for k in key_pairs], dtype=np.intp)

        # Q pattern: the off-diagonal keys plus one diagonal entry per
        # state with outgoing rate.  Key values are strictly positive on
        # this path (checked per stamp), so the diagonal support equals
        # the key support and the whole pattern is structural.
        self.diag = np.unique(self.key_src)
        rows_all = np.concatenate([self.key_src, self.diag])
        cols_all = np.concatenate([key_dst, self.diag])
        self.q_perm = np.lexsort((cols_all, rows_all))
        indptr = np.zeros(n_t + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows_all, minlength=n_t), out=indptr[1:])
        try:
            kv = self._key_values(values)
        except _StampMismatch as exc:
            raise _PlanUnusable(str(exc)) from None
        prototype = sp.csr_matrix(
            (self._generator_data(kv), cols_all[self.q_perm], indptr),
            shape=(n_t, n_t),
        )
        # Adopt scipy's canonical index dtype so per-stamp construction
        # is a pure data fill with no recasting.
        self.q_indices = prototype.indices
        self.q_indptr = prototype.indptr

        # The initial distribution is the same one-hot for every stamp,
        # so its validated (clipped + renormalised) form is computed
        # once and shared by every stamped chain, read-only.
        init = np.zeros(n_t)
        init[template.initial_tangible] = 1.0
        self.init_proto = init
        self.chain_initial = validate_distribution(init, n_t)

    # ------------------------------------------------------------------
    def _key_values(self, values: np.ndarray) -> np.ndarray:
        """Effective ``(src, dst)`` rates, in key order."""
        if self.v_eid.size and not np.array_equal(
            values[self.v_eid] > _PROB_EPS, self.v_mask
        ):
            raise _StampMismatch("vanishing-edge epsilon mask changed")
        x_data = np.zeros(self.nx)
        if self.nx:
            np.add.at(x_data, self.x_gid, values[self.v_gather][self.v_order])
            mass = np.zeros(self.n_v)
            np.add.at(mass, self.x_rows, x_data)
            if np.any(mass < 1.0 - 1e-6):
                raise _StampMismatch("vanishing marking fails to resolve")
            if not np.array_equal(x_data > _PROB_EPS, self.x_eps):
                raise _StampMismatch("resolution-matrix epsilon mask changed")
        cv = values[self.ce]
        if self.any_x:
            cv[self.hasx] = cv[self.hasx] * x_data[self.cx]
        kv = np.zeros(self.nk)
        np.add.at(kv, self.ck, cv)
        if not np.all(kv > 0.0):
            raise _StampMismatch("a folded rate is not strictly positive")
        return kv

    def _generator_data(self, kv: np.ndarray) -> np.ndarray:
        """CSR data vector of ``Q`` from key values (exit accumulation
        in key order, exactly like :func:`~repro.ctmc.chain.assemble_generator`)."""
        exits = np.zeros(self.n_t)
        np.add.at(exits, self.key_src, kv)
        return np.concatenate([kv, -exits[self.diag]])[self.q_perm]

    def stamp(
        self,
        values: np.ndarray,
        model: SANModel | None,
        model_factory=None,
    ) -> CompiledSAN:
        """Re-stamp the template at ``values`` via the precomputed plan."""
        template = self.template
        kv = self._key_values(values)
        q = sp.csr_matrix(
            (self._generator_data(kv), self.q_indices.copy(), self.q_indptr.copy()),
            shape=(self.n_t, self.n_t),
        )
        rates = dict(zip(self.key_pairs, kv.tolist()))
        # Markings and index are shared with the template (read-only by
        # convention), like the chain labels.
        graph = ReachabilityGraph(
            model_name=template.model_name,
            markings=template._labels,
            initial_distribution=self.init_proto.copy(),
            rates=rates,
            num_vanishing=self.n_v,
            _index=template._label_index,
        )
        chain = CTMC.from_assembled(
            q,
            self.chain_initial,
            template._labels,
            template._label_index,
            initial_validated=True,
        )
        return CompiledSAN(
            model=model,
            graph=graph,
            chain=chain,
            reward_cache=template.reward_cache,
            model_factory=model_factory,
        )


def _build_stamp_plan(
    template: ParametricSAN,
    values: np.ndarray,
    model: SANModel | None,
    model_factory=None,
):
    """Build a template's stamp plan and verify it bitwise, or give up.

    The freshly built plan is exercised once at ``values`` and its
    generator, initial distribution, and rate table are compared bit for
    bit against the reference path.  Any discrepancy — or a structure
    the plan cannot express — returns :data:`_PLAN_UNSUPPORTED`, pinning
    the template to the (slower, always-correct) reference path.
    """
    try:
        plan = _StampPlan(template, values)
        stamped = plan.stamp(values, model, model_factory)
    except (_PlanUnusable, _StampMismatch):
        return _PLAN_UNSUPPORTED
    reference = template._instantiate_reference(values, model, model_factory)
    q_new, q_ref = stamped.chain.generator, reference.chain.generator
    verified = (
        q_new.shape == q_ref.shape
        and np.array_equal(q_new.indptr, q_ref.indptr)
        and np.array_equal(q_new.indices, q_ref.indices)
        and q_new.data.tobytes() == q_ref.data.tobytes()
        and stamped.chain.initial_distribution.tobytes()
        == reference.chain.initial_distribution.tobytes()
        and list(stamped.graph.rates.items())
        == list(reference.graph.rates.items())
    )
    return plan if verified else _PLAN_UNSUPPORTED


# ----------------------------------------------------------------------
# Symbolic exploration
# ----------------------------------------------------------------------
class _Recorder:
    """Collects the coefficient table and validation sites during
    symbolic exploration."""

    def __init__(self, anchor: dict):
        self.anchor = anchor
        self.exprs: list[ParamExpr] = []
        self.index: dict[ParamExpr, int] = {}
        self.values: list[float] = []
        self.decisions: dict[int, bool] = {}
        self.positivity: set[int] = set()
        self.bounds: set[int] = set()
        self.sums: set[tuple[int, ...]] = set()

    def intern(self, expr: ParamExpr) -> int:
        found = self.index.get(expr)
        if found is not None:
            return found
        index = len(self.exprs)
        self.index[expr] = index
        self.exprs.append(expr)
        self.values.append(expr.evaluate(self.anchor))
        return index


def _symbolic_successors(activity, marking, recorder):
    """Symbolic mirror of ``case_probabilities`` + ``successors``.

    Returns ``(coefficient_index, next_marking)`` pairs for the cases
    whose anchor probability is positive, recording the bounds check,
    the sum-to-one check, and every zero-ness decision.
    """
    raw: list[int] = []
    for case in activity.cases:
        index = recorder.intern(_symbolic_md(case.probability, marking))
        recorder.bounds.add(index)
        raw.append(index)
    probs = [recorder.values[index] for index in raw]
    for p in probs:
        if p < -_PROB_ATOL or p > 1.0 + _PROB_ATOL:
            raise ModelStructureError(
                f"activity {activity.name!r}: case probability {p:g} "
                "outside [0, 1]"
            )
    total = sum(probs)
    if abs(total - 1.0) > _SUM_ATOL:
        raise ModelStructureError(
            f"activity {activity.name!r}: case probabilities sum to "
            f"{total:g}, expected 1"
        )
    recorder.sums.add(tuple(raw))
    out = []
    for case_index, raw_index in enumerate(raw):
        clamped = recorder.intern(Clamp01(recorder.exprs[raw_index]))
        positive = recorder.values[clamped] > 0.0
        recorder.decisions.setdefault(clamped, positive)
        if positive:
            out.append((clamped, activity.complete(marking, case_index)))
    return out


def compile_parametric(
    model: SANModel,
    anchor: dict,
    max_markings: int = DEFAULT_MAX_MARKINGS,
) -> ParametricSAN:
    """Explore ``model`` symbolically and build its re-stampable template.

    ``model`` is a :class:`SANModel` whose rates and case probabilities
    are :class:`ParamExpr` nodes (or plain constants).  ``anchor`` is a
    concrete parameter environment used to *drive* exploration — it
    decides which zero-probability cases are pruned, exactly as the
    concrete build would at those values — and becomes the template's
    structural fingerprint.

    Mirrors :func:`repro.san.reachability.explore` step for step, so a
    template instantiated at any matching environment reproduces the
    concrete build bit for bit.
    """
    recorder = _Recorder(anchor)
    initial = model.initial_marking()
    tangible: dict[Marking, int] = {}
    vanishing: dict[Marking, int] = {}
    tangible_list: list[Marking] = []
    vanishing_list: list[Marking] = []
    t_edges: list[tuple[int, bool, int, int]] = []
    v_edges: list[tuple[int, bool, int, int]] = []

    def classify(marking: Marking) -> tuple[bool, int, bool]:
        try:
            model.check_capacities(marking)
        except Exception as exc:
            raise StateSpaceError(
                f"exploration of {model.name!r} reached an invalid marking: {exc}"
            ) from exc
        if model.is_vanishing(marking):
            if marking in vanishing:
                return True, vanishing[marking], False
            index = len(vanishing_list)
            vanishing[marking] = index
            vanishing_list.append(marking)
            return True, index, True
        if marking in tangible:
            return False, tangible[marking], False
        index = len(tangible_list)
        tangible[marking] = index
        tangible_list.append(marking)
        return False, index, True

    queue: deque[tuple[bool, int]] = deque()
    init_is_vanishing, init_index, _ = classify(initial)
    queue.append((init_is_vanishing, init_index))

    while queue:
        if len(tangible_list) + len(vanishing_list) > max_markings:
            raise StateSpaceError(
                f"state space of {model.name!r} exceeds {max_markings} markings"
            )
        is_vanishing, index = queue.popleft()
        marking = (
            vanishing_list[index] if is_vanishing else tangible_list[index]
        )
        if is_vanishing:
            enabled = model.enabled_instantaneous(marking)
            weights = [
                recorder.intern(_symbolic_md(a.weight, marking)) for a in enabled
            ]
            for weight_index, activity in zip(weights, enabled):
                if recorder.values[weight_index] <= 0.0:
                    raise ModelStructureError(
                        f"instantaneous activity {activity.name!r} has "
                        f"non-positive weight "
                        f"{recorder.values[weight_index]:g}"
                    )
                recorder.positivity.add(weight_index)
            total_expr = Const(0.0)
            for weight_index in weights:
                total_expr = Add(total_expr, recorder.exprs[weight_index])
            for weight_index, activity in zip(weights, enabled):
                pick = Div(recorder.exprs[weight_index], total_expr)
                for prob_index, nxt in _symbolic_successors(
                    activity, marking, recorder
                ):
                    dst_vanishing, dst_index, is_new = classify(nxt)
                    if is_new:
                        queue.append((dst_vanishing, dst_index))
                    edge = recorder.intern(
                        Mul(pick, recorder.exprs[prob_index])
                    )
                    v_edges.append((index, dst_vanishing, dst_index, edge))
        else:
            for activity in model.enabled_timed(marking):
                rate_index = recorder.intern(
                    _symbolic_md(activity.rate, marking)
                )
                if recorder.values[rate_index] <= 0.0:
                    raise ModelStructureError(
                        f"timed activity {activity.name!r} has non-positive "
                        f"rate {recorder.values[rate_index]:g} in marking "
                        f"{marking.short_label()}"
                    )
                recorder.positivity.add(rate_index)
                for prob_index, nxt in _symbolic_successors(
                    activity, marking, recorder
                ):
                    dst_vanishing, dst_index, is_new = classify(nxt)
                    if is_new:
                        queue.append((dst_vanishing, dst_index))
                    edge = recorder.intern(
                        Mul(recorder.exprs[rate_index], recorder.exprs[prob_index])
                    )
                    t_edges.append((index, dst_vanishing, dst_index, edge))

    if not tangible_list:
        raise StateSpaceError(
            f"model {model.name!r} has no tangible markings — every marking "
            "enables an instantaneous activity"
        )

    return ParametricSAN(
        model_name=model.name,
        markings=tuple(tangible_list),
        vanishing_markings=tuple(vanishing_list),
        initial_tangible=tangible.get(initial),
        initial_vanishing=vanishing.get(initial),
        coefficients=tuple(recorder.exprs),
        t_edges=tuple(t_edges),
        v_edges=tuple(v_edges),
        decisions=tuple(sorted(recorder.decisions.items())),
        positivity=tuple(sorted(recorder.positivity)),
        probability_bounds=tuple(sorted(recorder.bounds)),
        probability_sums=tuple(sorted(recorder.sums)),
    )
