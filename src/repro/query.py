"""The one place outside input becomes validated domain input.

The CLI (:mod:`repro.cli`) and the HTTP service
(:mod:`repro.serve.service`) pass raw values through these functions, so
both accept and reject the same input with the same message.  Every
defect raises :class:`QueryError`: ``repro`` prints ``error: ...`` and
exits 2, the service answers 400.  An error raised inside a solve is
never converted.  Synthesis, surrogate and SAN-spec modules load lazily,
so importing this module costs nothing beyond importing the CLI.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import fields

from repro.gsu.fleet import FleetParameters
from repro.gsu.parameters import PAPER_TABLE3, GSUParameters
from repro.runtime.spec import default_grid
from repro.san.errors import SANError

#: The Table 3 fields a query may override.
PARAM_FIELDS = tuple(f.name for f in fields(GSUParameters))
_FLEET_FIELDS = tuple(f.name for f in fields(FleetParameters))
_FLEET_INTS = frozenset({"n_processes", "repair_servers", "n_upgraded"})
_FLEET_NULLABLE = frozenset({"n_upgraded", "mu_legacy"})  # None: not staged


class QueryError(ValueError):
    """Outside input that fails validation (CLI exit 2, HTTP 400)."""


@contextmanager
def rejecting(prefix: str = ""):
    """Re-raise a ``ValueError``/``TypeError`` as a prefixed QueryError."""
    try:
        yield
    except QueryError:
        raise
    except (TypeError, ValueError) as exc:
        raise QueryError(f"{prefix}{exc}") from exc


def _overrides(value, field: str, known: tuple[str, ...], kind: str) -> dict:
    if not isinstance(value, dict):
        raise QueryError(f"'{field}' must be an object of overrides")
    unknown = set(value) - set(known)
    if unknown:
        raise QueryError(
            f"unknown {kind} fields: {sorted(unknown)} (known: {sorted(known)})"
        )
    return value


def gsu_params(overrides, base: GSUParameters = PAPER_TABLE3) -> GSUParameters:
    """``base`` with Table 3 ``overrides`` (field name → number)."""
    overrides = _overrides(overrides, "params", PARAM_FIELDS, "parameter")
    with rejecting("invalid parameters: "):
        values = {name: float(value) for name, value in overrides.items()}
        return base.with_overrides(**values) if values else base


def fleet_params(overrides, base=FleetParameters()) -> FleetParameters:
    """``base`` with fleet ``overrides`` (field name → number)."""
    overrides = _overrides(overrides, "fleet", _FLEET_FIELDS, "fleet")

    def cast(name, value):
        if value is None and name in _FLEET_NULLABLE:
            return None
        return int(value) if name in _FLEET_INTS else float(value)

    with rejecting("invalid fleet parameters: "):
        return base.with_overrides(
            **{name: cast(name, value) for name, value in overrides.items()}
        )


def positive(value, name: str) -> float:
    """A positive, finite number."""
    with rejecting(f"invalid {name}: "):
        value = float(value)
    if not 0.0 < value < math.inf:
        raise QueryError(
            f"invalid {name}: {name} must be positive and finite, got {value}"
        )
    return value


def phi_grid(params, phis=None, step=None, max_points=None) -> list[float]:
    """A ``phi`` grid within ``[0, theta]`` of ``params``.

    Either ``phis``, a non-empty list, or a ``step`` spacing over
    ``[0, theta]`` (default 1000 hours), not both.  A grid longer than
    ``max_points`` is rejected, a ``step`` grid before it is built.
    """
    if phis is not None and step is not None:
        raise QueryError("give either 'phis' or 'step', not both")
    if phis is None:
        step = positive(1000.0 if step is None else step, "step")
        if max_points and params.theta / step > max_points:
            raise QueryError(f"step {step:g} gives more than {max_points} points")
        phis = default_grid(params.theta, step=step)
    elif not isinstance(phis, list) or not phis:
        raise QueryError("'phis' must be a non-empty array")
    if max_points and len(phis) > max_points:
        raise QueryError(f"grid of {len(phis)} points exceeds {max_points}")
    with rejecting("invalid phi: "):
        return [params.validate_phi(float(phi)) for phi in phis]


def fleet_grid(params, phis=None, step=None, max_points=None) -> list[float]:
    """A fleet ``phi`` grid: :func:`phi_grid`, except that with neither
    ``phis`` nor ``step`` it is the 11 points ``0, theta/10, ..., theta``
    (``repro fleet`` and ``POST /fleet`` share this default)."""
    if phis is None and step is None:
        phis = [i * params.theta / 10 for i in range(11)]
    return phi_grid(params, phis, step, max_points)


def synthesis_request(
    params, levers, bounds, budget, max_iters, starts, caps=(None, None)
):
    """``(SynthesisProblem, SynthesisConfig)`` for lever names ``levers``,
    ``bounds`` (lever → ``[lower, upper]``) and the search effort, which
    ``caps`` bounds as ``(max_iters, starts)`` when given."""
    from repro.synth import SynthesisConfig, SynthesisProblem, resolve_levers

    if not isinstance(levers, list) or not all(isinstance(n, str) for n in levers):
        raise QueryError("'levers' must be an array of lever names")
    if not isinstance(bounds, dict):
        raise QueryError("'bounds' must be an object of [lower, upper] pairs")
    boxes = {}
    for name, pair in bounds.items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise QueryError(f"bounds for {name!r} must be a [lower, upper] pair")
        with rejecting(f"invalid bounds for {name!r}: "):
            boxes[name] = (float(pair[0]), float(pair[1]))
    with rejecting("invalid synthesis options: "):
        effort = {"max_iters": int(max_iters), "starts": int(starts)}
        budget = None if budget is None else float(budget)
    for (name, value), cap in zip(effort.items(), caps):
        if cap is not None and not 1 <= value <= cap:
            raise QueryError(f"{name} must be in [1, {cap}]")
    with rejecting():
        levers = resolve_levers(params, levers, bounds=boxes)
        problem = SynthesisProblem(params=params, levers=levers, budget=budget)
        return problem, SynthesisConfig(**effort)


def load_surrogate(path):
    """The certified surrogate artifact at ``path``."""
    from repro.surrogate import load_surrogate as load

    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise QueryError(f"cannot load surrogate: {exc}") from exc


def load_file(path, parse, what: str):
    """``parse`` of the text of the file at ``path`` (a ``what``)."""
    try:
        with open(path) as handle:
            return parse(handle.read())
    except (OSError, ValueError, KeyError, TypeError, SANError) as exc:
        raise QueryError(f"bad {what} {path}: {exc}") from exc


def reward_structure(specs, compiled):
    """A rate reward structure from ``EXPR[:RATE]`` texts (rate 1 when
    absent), checked against the places of the model ``compiled``."""
    from repro.san.spec import reward_structure_from_spec

    pairs = []
    for spec in specs:
        text, _, rate = spec.rpartition(":")
        try:
            pairs.append((text, float(rate)) if text else (spec, 1.0))
        except ValueError:
            pairs.append((spec, 1.0))
    try:
        structure = reward_structure_from_spec("cli", pairs)
        structure.rate_vector(compiled)
    except SANError as exc:
        raise QueryError(str(exc)) from exc
    return structure
