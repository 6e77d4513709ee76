"""Channels, input designs, induced joints, and iid products."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from martonlab import JointPmf, SeededRng
from martonlab.channels import (
    ClassicalBroadcastChannel,
    CqBroadcastChannel,
    InputDesign,
    ProductClassicalChannel,
    bob_ensemble,
    build_classical_joints,
    channel_from_json,
    charlie_ensemble,
)
from martonlab.errors import NormalizationError, ValidationError
from martonlab.quantum import DensityOperator, partial_trace

from conftest import nfold, product_design


def build_joint_state(channel: CqBroadcastChannel, design: InputDesign, dim_cap: int = 4096):
    """Classical-quantum state on U, V, B, C induced by a design.

    Returns ``(state, dims)`` with dims ``(|U|, |V|, dim_b, dim_c)``.
    """
    joint = design.joint
    nu, nv = joint.shape
    db, dc = channel.dim_b, channel.dim_c
    total = nu * nv * db * dc
    if total > dim_cap:
        raise ValidationError(f"joint state dimension {total} exceeds cap {dim_cap}")
    fx = design.x_indices(channel)
    out = np.zeros((total, total), dtype=complex)
    block = db * dc
    for i in range(nu):
        for j in range(nv):
            mass = joint.probs[i, j]
            if mass > 0.0:
                off = (i * nv + j) * block
                out[off:off + block, off:off + block] = mass * channel.states[fx[i, j]].matrix
    return DensityOperator(out), (nu, nv, db, dc)


def bsc_pair_channel(p: float, q: float) -> ClassicalBroadcastChannel:
    """Two independent binary symmetric branches: Y flips bit 1, Z flips bit 2."""

    xs = ("00", "01", "10", "11")
    arr = np.zeros((4, 2, 2))
    for xi, x in enumerate(xs):
        a, b = int(x[0]), int(x[1])
        for y in range(2):
            for z in range(2):
                arr[xi, y, z] = (1 - p if y == a else p) * (1 - q if z == b else q)
    return ClassicalBroadcastChannel(xs, ("0", "1"), ("0", "1"), arr)


def uniform_pair_design() -> InputDesign:
    joint = JointPmf(("0", "1"), ("0", "1"), np.full((2, 2), 0.25))
    return InputDesign(joint, {(u, v): u + v for u in "01" for v in "01"})


def qubit_cq_channel() -> CqBroadcastChannel:
    """Two inputs; B gets a tilted basis state, C gets a mixed diagonal."""

    theta = 0.3
    v0 = np.array([np.cos(theta), np.sin(theta)])
    v1 = np.array([-np.sin(theta), np.cos(theta)])
    b0 = np.outer(v0, v0)
    b1 = np.outer(v1, v1)
    c0 = np.diag([0.8, 0.2])
    c1 = np.diag([0.3, 0.7])
    return CqBroadcastChannel(("0", "1"), 2, 2, (
        DensityOperator(np.kron(b0, c0)),
        DensityOperator(np.kron(b1, c1)),
    ))


def simple_cq_design() -> InputDesign:
    joint = JointPmf(("0", "1"), ("0", "1"), [[0.4, 0.1], [0.1, 0.4]])
    return InputDesign(joint, {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "1", ("1", "1"): "1"})


class TestClassicalChannel:
    def test_validation(self):
        with pytest.raises(NormalizationError):
            ClassicalBroadcastChannel(("a",), ("0",), ("0", "1"), [[[0.5, 0.4]]])
        with pytest.raises(ValidationError):
            ClassicalBroadcastChannel(("a",), ("0",), ("0",), [[[1.0, 0.0]]])
        with pytest.raises(ValidationError):
            ClassicalBroadcastChannel(("a", "a"), ("0",), ("0",), [[[1.0]], [[1.0]]])

    def test_marginals_consistent_with_joint(self):
        ch = bsc_pair_channel(0.1, 0.2)
        py, pz = ch.marginals()
        for xi in range(len(ch.x_alphabet)):
            j = ch.probs[xi]
            assert_allclose(j.sum(axis=1), py[xi], atol=1e-12)
            assert_allclose(j.sum(axis=0), pz[xi], atol=1e-12)

    def test_branches_are_independent(self):
        ch = bsc_pair_channel(0.1, 0.2)
        j = ch.probs[ch.x_index("01")]
        assert_allclose(j, np.outer(j.sum(axis=1), j.sum(axis=0)), atol=1e-12)

    def test_sampling_frequencies(self):
        ch = bsc_pair_channel(0.3, 0.0)
        y, z = ProductClassicalChannel(ch, 1).sample_outputs(
            np.full(20_000, ch.x_index("00")), SeededRng(5).random(20_000))
        assert abs(y.mean() - 0.3) < 3 * np.sqrt(0.3 * 0.7 / 20_000)
        assert not z.any()

    def test_json_round_trip(self):
        ch = bsc_pair_channel(0.05, 0.15)
        back = channel_from_json(json.loads(json.dumps(ch.to_json())))
        assert isinstance(back, ClassicalBroadcastChannel)
        assert back.x_alphabet == ch.x_alphabet
        assert_allclose(back.probs, ch.probs, atol=0)


class TestCqChannel:
    def test_reduced_states(self):
        ch = qubit_cq_channel()
        assert_allclose(ch.rho_c("0"), np.diag([0.8, 0.2]), atol=1e-12)
        assert_allclose(np.trace(ch.rho_b("1")), 1.0, atol=1e-12)

    def test_reduced_states_are_shared_read_only_partial_traces(self):
        ch = qubit_cq_channel()
        for x, state in zip(ch.x_alphabet, ch.states):
            rho = state.matrix
            for got, keep in ((ch.rho_b(x), (0,)), (ch.rho_c(x), (1,))):
                assert np.array_equal(got, partial_trace(rho, (ch.dim_b, ch.dim_c), keep))
                assert not got.flags.writeable
            assert ch.rho_b(x) is ch.rho_b(x)
        with pytest.raises(ValidationError):
            ch.rho_b("nope")

    def test_state_dim_validation(self):
        with pytest.raises(ValidationError):
            CqBroadcastChannel(("0",), 2, 2, (DensityOperator(np.eye(2) / 2),))

    @pytest.mark.parametrize("dim", [2.9, 2.0, "2", True, 0])
    def test_dimensions_must_be_positive_integers(self, dim):
        # a float is refused, not truncated; numpy integers pass
        state = (DensityOperator(np.eye(4) / 4),)
        with pytest.raises(ValidationError, match="dim_b must be a positive integer"):
            CqBroadcastChannel(("0",), dim, 2, state)
        assert CqBroadcastChannel(("0",), np.int64(2), 2, state).dim_b == 2

    def test_json_round_trip(self):
        ch = qubit_cq_channel()
        back = channel_from_json(json.loads(json.dumps(ch.to_json())))
        assert isinstance(back, CqBroadcastChannel)
        assert back.x_alphabet == ch.x_alphabet
        for a, b in zip(back.states, ch.states):
            assert_allclose(a.matrix, b.matrix, atol=1e-15)

    def test_json_missing_state(self):
        data = qubit_cq_channel().to_json()
        del data["states"]["1"]
        with pytest.raises(ValidationError):
            CqBroadcastChannel.from_json(data)


class TestInputDesign:
    def test_requires_f_on_support(self):
        joint = JointPmf(("0", "1"), ("0", "1"), np.full((2, 2), 0.25))
        with pytest.raises(ValidationError):
            InputDesign(joint, {("0", "0"): "00"})

    def test_json_round_trip(self):
        d = uniform_pair_design()
        back = InputDesign.from_json(json.loads(json.dumps(d.to_json())))
        assert back.f == d.f
        assert_allclose(back.joint.probs, d.joint.probs, atol=0)

    def test_comma_labels_rejected_at_construction(self):
        # a design that could not be written as JSON would have no digest,
        # so hash() and == would raise on it later
        with pytest.raises(ValidationError, match="','"):
            InputDesign(JointPmf(("a,b",), ("0",), [[1.0]]), {("a,b", "0"): "x"})
        with pytest.raises(ValidationError, match="','"):
            InputDesign(JointPmf(("a",), ("0,1",), [[1.0]]), {("a", "0,1"): "x"})
        # labels with other punctuation pass, and hash and compare by content
        joint = JointPmf(("a;b",), ("0 1",), [[1.0]])
        d, e = (InputDesign(joint, {("a;b", "0 1"): "x"}) for _ in range(2))
        assert d == e and hash(d) == hash(e) and len({d, e}) == 1
        assert InputDesign.from_json(json.loads(json.dumps(d.to_json()))) == d

    def test_f_keys_must_be_label_pairs(self):
        joint = JointPmf(("0",), ("0",), [[1.0]])
        for key in (("0",), ("0", 0), "00"):
            with pytest.raises(ValidationError, match="f keys"):
                InputDesign(joint, {key: "x", ("0", "0"): "x"})


class TestInducedJoints:
    def test_against_four_way_enumeration(self):
        ch = bsc_pair_channel(0.1, 0.2)
        design = uniform_pair_design()
        j_uy, j_vz = build_classical_joints(ch, design)
        # independent enumeration of p(u, v, y, z)
        p_uy = np.zeros((2, 2))
        p_vz = np.zeros((2, 2))
        for i, u in enumerate(("0", "1")):
            for j, v in enumerate(("0", "1")):
                mass = design.joint.probs[i, j]
                yz = ch.probs[ch.x_index(design.f[(u, v)])]
                for y in range(2):
                    for z in range(2):
                        p_uy[i, y] += mass * yz[y, z]
                        p_vz[j, z] += mass * yz[y, z]
        assert_allclose(j_uy.probs, p_uy, atol=1e-12)
        assert_allclose(j_vz.probs, p_vz, atol=1e-12)

    def test_bsc_branch_shapes_the_uy_joint(self):
        ch = bsc_pair_channel(0.1, 0.5)
        j_uy, j_vz = build_classical_joints(ch, uniform_pair_design())
        assert_allclose(j_uy.probs, [[0.45, 0.05], [0.05, 0.45]], atol=1e-12)
        # the z branch is pure noise, so V and Z decouple
        assert_allclose(j_vz.probs, np.full((2, 2), 0.25), atol=1e-12)


class TestJointState:
    def test_trace_and_dims(self):
        state, dims = build_joint_state(qubit_cq_channel(), simple_cq_design())
        assert dims == (2, 2, 2, 2)
        assert_allclose(np.trace(state.matrix), 1.0, atol=1e-12)

    def test_ensembles_match_partial_traces(self):
        ch = qubit_cq_channel()
        design = simple_cq_design()
        state, dims = build_joint_state(ch, design)
        pu, rho_u = bob_ensemble(ch, design)
        rho_ub = partial_trace(state.matrix, dims, (0, 2))
        expected = np.zeros_like(rho_ub)
        for u in range(2):
            expected[u * 2:(u + 1) * 2, u * 2:(u + 1) * 2] = pu[u] * rho_u[u]
        assert_allclose(rho_ub, expected, atol=1e-12)
        pv, rho_v = charlie_ensemble(ch, design)
        rho_vc = partial_trace(state.matrix, dims, (1, 3))
        expected = np.zeros_like(rho_vc)
        for v in range(2):
            expected[v * 2:(v + 1) * 2, v * 2:(v + 1) * 2] = pv[v] * rho_v[v]
        assert_allclose(rho_vc, expected, atol=1e-12)

    def test_dim_cap(self):
        with pytest.raises(ValidationError):
            build_joint_state(qubit_cq_channel(), simple_cq_design(), dim_cap=8)


class TestNfold:
    def test_classical_two_fold_is_product(self):
        ch = bsc_pair_channel(0.1, 0.2)
        big = nfold(ch, 2)
        assert big.x_alphabet[1] == "00,01"
        xi = big.x_alphabet.index("01,10")
        a = ch.x_index("01")
        b = ch.x_index("10")
        expected = np.einsum("yz,ab->yazb", ch.probs[a], ch.probs[b]).reshape(4, 4)
        assert_allclose(big.probs[xi], expected, atol=1e-12)

    def test_classical_one_fold_unchanged(self):
        ch = bsc_pair_channel(0.1, 0.2)
        one = nfold(ch, 1)
        assert one.x_alphabet == ch.x_alphabet
        assert_allclose(one.probs, ch.probs, atol=0)

    def test_cell_cap(self):
        ch = bsc_pair_channel(0.1, 0.2)
        with pytest.raises(ValidationError):
            nfold(ch, 12)

    def test_quantum_two_fold_reduced_states(self):
        ch = qubit_cq_channel()
        big = nfold(ch, 2)
        assert big.dim_b == 4 and big.dim_c == 4
        assert_allclose(big.rho_b("01"), np.kron(ch.rho_b("0"), ch.rho_b("1")), atol=1e-12)
        assert_allclose(big.rho_c("10"), np.kron(ch.rho_c("1"), ch.rho_c("0")), atol=1e-12)

    def test_quantum_dim_cap(self):
        with pytest.raises(ValidationError):
            nfold(qubit_cq_channel(), 6)

    def test_quantum_one_fold_with_multi_character_inputs(self):
        # labels '00'..'11' are letters, not two one-character letters
        path = Path(__file__).resolve().parent.parent / "demos" / "data" / "qubit_channel.json"
        ch = channel_from_json(json.loads(path.read_text()))
        one = nfold(ch, 1)
        assert one.x_alphabet == ch.x_alphabet
        for a, b in zip(one.states, ch.states):
            assert_allclose(a.matrix, b.matrix, atol=0)

    def test_product_design(self):
        d = uniform_pair_design()
        big = product_design(d, 2)
        assert_allclose(big.joint.probs, np.full((4, 4), 0.0625), atol=1e-12)
        # symbol-wise: f(u1 u2, v1 v2) joins f(u1, v1) and f(u2, v2)
        assert big.f[("01", "10")] == "01,10"
        assert big.f[("10", "01")] == "10,01"


class TestProductView:
    def test_matches_dense_frequencies(self):
        ch = bsc_pair_channel(0.2, 0.4)
        view = ProductClassicalChannel(ch, 2)
        x = np.array([ch.x_index("01"), ch.x_index("10")])
        n = 30_000
        ys, _ = view.sample_outputs(np.broadcast_to(x, (n, 2)), SeededRng(77).random((n, 2)))
        # first symbol sends bit 0 through BSC(0.2)
        assert abs(ys[:, 0].mean() - 0.2) < 3 * np.sqrt(0.2 * 0.8 / n)
        assert abs(ys[:, 1].mean() - 0.8) < 3 * np.sqrt(0.2 * 0.8 / n)

    def test_deterministic_under_seed(self):
        ch = bsc_pair_channel(0.2, 0.4)
        view = ProductClassicalChannel(ch, 8)
        x = np.zeros(8, dtype=np.int64)
        y1, z1 = view.sample_outputs(x, SeededRng(9, 4).random(8))
        y2, z2 = view.sample_outputs(x, SeededRng(9, 4).random(8))
        assert np.array_equal(y1, y2) and np.array_equal(z1, z2)


def _shift(probs):
    """Move 0.05 of mass from the first cell of a pmf's first row to the second."""
    probs[0][0] -= 0.05
    probs[0][1] += 0.05


def _swap_state(doc):
    doc["states"]["0"] = doc["states"]["1"]


def _rename_input(doc):
    doc["x_alphabet"][1] = "2"
    doc["states"]["2"] = doc["states"].pop("1")


# each value type: its class, one value, an edit of one probability (of a
# state, for the cq channel) and an edit of one label
VALUES = {
    "joint": (JointPmf, lambda: simple_cq_design().joint, lambda d: _shift(d["probs"]),
              lambda d: d["col_labels"].__setitem__(1, "2")),
    "classical": (ClassicalBroadcastChannel, lambda: bsc_pair_channel(0.1, 0.2),
                  lambda d: _shift(d["p"][0]), lambda d: d["y_alphabet"].__setitem__(1, "2")),
    "cq": (CqBroadcastChannel, qubit_cq_channel, _swap_state, _rename_input),
    "design": (InputDesign, simple_cq_design, lambda d: _shift(d["uv"]["probs"]),
               lambda d: d["f"].__setitem__("1,1", "0")),
}


@pytest.mark.parametrize("kind", sorted(VALUES))
class TestContentValues:
    """Joints, channels and designs compare and hash by their JSON content."""

    def test_copies_read_from_json_are_equal(self, kind):
        cls, build, _, _ = VALUES[kind]
        text = json.dumps(build().to_json())
        a, b = (cls.from_json(json.loads(text)) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: "first"}[b] == "first"

    @pytest.mark.parametrize("edit", ["probability", "label"])
    def test_one_edit_compares_unequal(self, kind, edit):
        cls, build, *edits = VALUES[kind]
        doc = build().to_json()
        changed = copy.deepcopy(doc)
        edits[edit == "label"](changed)
        a, b = cls.from_json(doc), cls.from_json(changed)
        assert a != b and len({a, b}) == 2

    def test_another_type_compares_unequal(self, kind):
        cls, build, _, _ = VALUES[kind]
        doc = build().to_json()
        other = type(f"Other{cls.__name__}", (cls,), {})
        a, b = cls.from_json(doc), other.from_json(doc)
        assert a.digest == b.digest and a != b and b != a and len({a, b}) == 2
