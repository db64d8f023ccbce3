"""Artifact serialization: bitwise round-trips and domain refusal.

The round-trip contract is strict: a loaded artifact must reproduce the
original surrogate's evaluations and gradients to the last bit, because
the certified bounds it carries were measured against *those* numbers.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.surrogate import (
    OutOfDomainError,
    load_surrogate,
    save_surrogate,
)
from repro.surrogate.artifact import surrogate_digest
from repro.synth import SynthesisProblem, resolve_levers
from repro.synth.objective import ObjectiveEvaluator


def _random_in_box(spec, rng, n):
    """n fresh (params, phi) points strictly inside the fitted box."""
    phi_axis = spec.axes[0]
    points = []
    for _ in range(n):
        levers = {
            axis.name: float(rng.uniform(axis.lo, axis.hi))
            for axis in spec.axes[1:]
        }
        phi = float(rng.uniform(phi_axis.lo, phi_axis.hi))
        points.append((spec.params_at(levers), phi))
    return points


class TestRoundTrip:
    def test_save_load_is_bitwise(self, model, tmp_path):
        path = save_surrogate(model, tmp_path / "m.json")
        loaded = load_surrogate(path)

        assert loaded.coeffs.tobytes() == model.coeffs.tobytes()
        assert loaded.bounds == model.bounds
        assert loaded.scales == model.scales
        assert loaded.spec == model.spec

        rng = np.random.default_rng(23)
        for params, phi in _random_in_box(model.spec, rng, 25):
            assert loaded.constituents(params, phi) == model.constituents(
                params, phi
            )
            y_a, grad_a = model.y_and_gradient(params, phi)
            y_b, grad_b = loaded.y_and_gradient(params, phi)
            assert y_a == y_b
            assert grad_a == grad_b
            assert loaded.y_error_bound(params, phi) == model.y_error_bound(
                params, phi
            )

    def test_digest_is_idempotent_across_round_trips(self, model, tmp_path):
        path = save_surrogate(model, tmp_path / "m.json")
        loaded = load_surrogate(path)
        assert surrogate_digest(loaded) == model.meta["digest"]
        again = save_surrogate(loaded, tmp_path / "m2.json")
        assert json.loads(again.read_text()) == json.loads(path.read_text())

    def test_directory_saves_are_content_addressed(self, model, tmp_path):
        first = save_surrogate(model, tmp_path / "artifacts")
        second = save_surrogate(model, tmp_path / "artifacts")
        assert first == second
        assert first.name.startswith("surrogate-")
        assert len(list((tmp_path / "artifacts").iterdir())) == 1


class TestVerification:
    def test_corrupted_payload_rejected(self, model, tmp_path):
        path = save_surrogate(model, tmp_path / "m.json")
        data = json.loads(path.read_text())
        data["coefficients"][0][0][0] += 1e-3
        path.write_text(json.dumps(data, sort_keys=True))
        with pytest.raises(ValueError, match="digest mismatch"):
            load_surrogate(path)

    def test_artifact_with_run_facts_in_meta_still_loads(self, model, tmp_path):
        """Artifacts written before run timings left ``meta`` carry them
        inside their digest; the digest is checked over the payload as
        stored, so they still load."""
        path = save_surrogate(model, tmp_path / "m.json")
        data = json.loads(path.read_text())
        data["meta"]["fit"].update(
            cached_nodes=0, wall_seconds=0.25, solve_seconds=0.2,
            templates={"compiles": 4, "restamps": 9, "fallbacks": 0},
        )
        del data["digest"]
        data["digest"] = hashlib.sha256(
            json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        path.write_text(json.dumps(data, sort_keys=True))
        loaded = load_surrogate(path)
        assert loaded.meta["digest"] == data["digest"] != model.meta["digest"]
        assert loaded.meta["fit"]["wall_seconds"] == 0.25

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something.else"}))
        with pytest.raises(ValueError, match="not a surrogate artifact"):
            load_surrogate(path)


class TestDomainRefusal:
    def test_out_of_box_phi_raises(self, model):
        params = model.spec.params_at({"coverage": 0.9})
        hi = model.spec.axes[0].hi
        with pytest.raises(OutOfDomainError):
            model.constituents(params, hi * 1.01)
        with pytest.raises(OutOfDomainError):
            model.evaluate(params, -1.0)

    def test_out_of_box_lever_raises(self, model):
        params = model.spec.params_at({"coverage": 0.5})
        with pytest.raises(OutOfDomainError):
            model.constituents(params, 1.0)
        with pytest.raises(OutOfDomainError):
            model.constituents_grid(params, [1.0, 2.0])

    def test_off_axis_parameter_mismatch_raises(self, model):
        params = model.spec.params.with_overrides(lam=model.spec.params.lam * 2)
        with pytest.raises(OutOfDomainError):
            model.constituents(params, 1.0)
        assert not model.contains(params, 1.0)

    def test_covers_is_whole_grid(self, model):
        params = model.spec.params_at({"coverage": 0.9})
        hi = model.spec.axes[0].hi
        assert model.covers(params, [0.0, hi / 2, hi])
        assert not model.covers(params, [0.0, hi * 1.01])
        assert not model.covers(params, [])

    def test_evaluator_falls_back_to_exact_out_of_box(self, model):
        base = model.spec.params
        levers = resolve_levers(
            base, ["phi", "coverage"], bounds={"coverage": (0.5, 0.95)}
        )
        problem = SynthesisProblem(params=base, levers=levers)
        evaluator = ObjectiveEvaluator(problem, surrogate=model)

        in_box = (base.theta / 2, 0.9)
        evaluator.measures(in_box)
        assert evaluator.surrogate_points == 1
        assert evaluator.points_evaluated == 0

        out_of_box = (base.theta / 2, 0.6)
        evaluator.measures(out_of_box)
        assert evaluator.surrogate_points == 1
        assert evaluator.points_evaluated == 1
