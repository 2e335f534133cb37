import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from splitcut.circuit import (
    Circuit, ParamVector, build_qaoa, cx, h, measure_all, parse, rx, rz, serialize,
    transpile,
)
from splitcut.errors import CapacityError, RoutingError
from splitcut.graph import Graph, benchmark_graph, cut_values_vector
from splitcut.obfuscation import PrunedFlavor, compile_flavor
from splitcut.simulator import (
    BackendProfile,
    NoiseModel,
    backend_from_dict,
    compile_kernel,
    load_backend_profiles,
    outcome_probabilities,
    run_shots,
    run_statevector,
    sample_tally,
    shot_rng,
)

from conftest import counts, expectation_full_cost, line, random_params, relabel, remap_counts

BELL = Circuit(2, (h(0), cx(0, 1), measure_all()))

PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def _on_qubits(mats: dict[int, np.ndarray], n: int) -> np.ndarray:
    # Kronecker product with qubit 0 as the most significant factor.
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, mats.get(q, np.eye(2)))
    return out


def _gate_unitary(gate, n: int) -> np.ndarray:
    if gate.name == "h":
        return _on_qubits({gate.qubits[0]: np.array([[1, 1], [1, -1]]) / math.sqrt(2)}, n)
    if gate.name in ("rx", "rz"):
        c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
        mat = (np.array([[c, -1j * s], [-1j * s, c]]) if gate.name == "rx"
               else np.diag([c - 1j * s, c + 1j * s]))
        return _on_qubits({gate.qubits[0]: mat}, n)
    control, target = gate.qubits
    zero, one = np.diag([1, 0]), np.diag([0, 1])
    return (_on_qubits({control: zero}, n)
            + _on_qubits({control: one, target: PAULIS[0]}, n))


def kraus_reference(c: Circuit, noise: NoiseModel) -> np.ndarray:
    """Dense reference: full unitaries, the depolarizing Kraus sum on every
    touched qubit after each gate, then a readout confusion matrix."""
    n = c.num_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in c.gates:
        if gate.name == "measure":
            continue
        u = _gate_unitary(gate, n)
        rho = u @ rho @ u.conj().T
        p = noise.p2 if gate.name == "cx" else noise.p1
        for q in gate.qubits:
            kicks = [_on_qubits({q: pauli}, n) for pauli in PAULIS]
            rho = (1 - p) * rho + (p / 3) * sum(k @ rho @ k.conj().T for k in kicks)
    f = noise.readout_flip
    confusion = _on_qubits({q: np.array([[1 - f, f], [f, 1 - f]]) for q in range(n)}, n)
    return confusion @ np.diag(rho).real


def _dense_statevector(c: Circuit) -> np.ndarray:
    state = np.eye(1 << c.num_qubits)[:, 0]
    for gate in c.gates:
        if gate.name != "measure":
            state = _gate_unitary(gate, c.num_qubits) @ state
    return state


@st.composite
def clifford_rotation_circuits(draw):
    """h/cx/rx/rz circuits on 1-5 qubits with SWAP triples, where h between
    rotations conjugates Paulis into Y factors and sign flips."""
    n = draw(st.integers(1, 5))
    ops = ["h", "h", "rx", "rz"] + (["cx", "cx", "swap"] if n > 1 else [])
    gates = []
    for op in draw(st.lists(st.sampled_from(ops), min_size=10, max_size=30)):
        if op in ("rx", "rz"):
            angle = draw(st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
            gates.append((rx if op == "rx" else rz)(draw(st.integers(0, n - 1)), angle))
        elif op == "h":
            gates.append(h(draw(st.integers(0, n - 1))))
        else:
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates += [cx(a, b), cx(b, a), cx(a, b)] if op == "swap" else [cx(a, b)]
    return Circuit(n, tuple(gates))


def _pinned_circuit() -> Circuit:
    """40 h/cx/rx/rz gates on 5 qubits from a fixed stream: rotations
    conjugated into X and Z parts at once, with signs."""
    rng = np.random.default_rng(28)
    gates = []
    for op, a, b in zip(rng.integers(0, 4, size=40), rng.integers(0, 5, size=40),
                        rng.integers(1, 5, size=40)):
        a, b = int(a), int(b)
        gates.append([h(a), rx(a, 0.5), rz(a, 0.5), cx(a, (a + b) % 5)][int(op)])
    return Circuit(5, tuple(gates))


def _kernel_digest(kernel) -> str:
    # sha256 over every array a compiled kernel holds, in order, and the
    # repr of every other value in its steps and groups
    digest = hashlib.sha256()

    def add(*values):
        for x in values:
            digest.update(x.tobytes() if isinstance(x, np.ndarray) else repr(x).encode())

    add(kernel.start)
    for step in kernel.steps:
        add(*step)
    for key, (parts, ks) in sorted((kernel.groups or {}).items()):
        add(key, parts, ks)
    add(*(kernel.readout or ()))
    return digest.hexdigest()


class TestStatevector:
    def test_single_hadamard(self):
        state = run_statevector(Circuit(1, (h(0),)))
        assert np.allclose(state, [1 / math.sqrt(2)] * 2)

    def test_bell_state(self):
        state = run_statevector(BELL)
        expected = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.allclose(state, expected)

    def test_qaoa_at_zero_angles_is_uniform(self):
        g = benchmark_graph("cycle4")
        c = build_qaoa(g, ParamVector((0.0,), (0.0,)))
        probs = np.abs(run_statevector(c)) ** 2
        assert np.allclose(probs, 1 / 16)

    def test_norm_preserved_after_every_gate(self, benchmarks):
        rng = np.random.default_rng(2)
        for g in benchmarks.values():
            c = build_qaoa(g, random_params(rng, 2))
            for i in range(len(c.gates) + 1):
                prefix = Circuit(c.num_qubits, c.gates[:i])
                assert abs(np.linalg.norm(run_statevector(prefix)) - 1.0) <= 1e-10

    def test_amplitudes_match_dense_unitaries(self, benchmarks):
        # phases too: negating every angle conjugates the state, which no
        # distribution can tell
        rng = np.random.default_rng(6)
        for g in benchmarks.values():
            params = random_params(rng, 2)
            c = build_qaoa(g, params)
            shuffled = build_qaoa(relabel(g, rng.permutation(g.n)), params)
            routed = transpile(shuffled, line(g.n)).circuit
            for circ in (c, routed):
                assert np.abs(run_statevector(circ) - _dense_statevector(circ)).max() < 1e-12

    @given(clifford_rotation_circuits(), st.floats(0.0, 0.5))
    @example(Circuit(2, (h(0), h(1), rz(1, 0.7), cx(0, 1), h(0), cx(0, 1), h(0))), 0.0)
    @example(Circuit(3, (h(0), h(1), h(2), rz(0, 0.3), cx(0, 1), rz(1, 1.1), cx(1, 2), rz(2, 0.3),
                         cx(0, 1), rz(1, -0.8), rx(2, 0.5))), 0.0)
    @example(Circuit(2, (h(0), h(1), cx(0, 1), rx(0, 0.4), rx(1, 1.3), cx(0, 1))), 0.0)
    @settings(max_examples=100, deadline=None)
    def test_phases_match_dense_unitaries(self, c, flip):
        # QAOA circuits conjugate no rotation into a Y: these do (the first
        # example's rz becomes -Y0 Y1, which its last h negates), so a wrong
        # sign of H Y H or a lost global phase shows here. The second
        # example's rz gates are one phase step with a row per angle, on
        # overlapping qubits: Z0 + Z2 at 0.3, Z0 Z1 at 1.1 and Z1 at -0.8.
        # The third's rx gates are one Hadamard-basis step with two rows on
        # overlapping qubits: X0 X1 at 0.4 and X1 at 1.3
        assert np.abs(run_statevector(c) - _dense_statevector(c)).max() < 1e-12
        noise = NoiseModel(readout_flip=flip)
        assert np.abs(outcome_probabilities(c, noise) - kraus_reference(c, noise)).max() < 1e-12

    @given(clifford_rotation_circuits(), st.floats(0.0, 0.5), st.floats(0.001, 0.5), st.floats(0.0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_gate_noise_matches_kraus_reference(self, c, p1, p2, flip):
        # blocks take gates past later blocks on other qubits: random h, rx,
        # rz and cx orders check that every such move commutes
        noise = NoiseModel(p1, p2, flip)
        assert np.abs(outcome_probabilities(c, noise) - kraus_reference(c, noise)).max() < 1e-12

    @pytest.mark.parametrize("routed", [False, True])
    def test_qaoa_cost_layers_are_one_phase_step_each(self, benchmarks, routed):
        # every rz of a cost layer, routed or not, is a diagonal Z_u Z_v
        # rotation at the layer's one angle, and every rx of a mixer layer an
        # X-only rotation at its one angle, since the later cx and SWAPs keep
        # X strings X strings: one phase step and one Hadamard-basis step
        # per layer, each holding one row
        for g in benchmarks.values():
            b = BackendProfile("b", coupling=line(g.n) if routed else None)
            for p in (1, 2, 3):
                kernel = compile_flavor(g, PrunedFlavor((), b), p).kernel
                kinds = ["phase" if how is None else "hadamard" if isinstance(how, np.ndarray)
                         else "rotation" for _, how, _ in kernel.steps]
                assert kinds == ["phase", "hadamard"] * p
                assert [w.shape[-1] for _, _, w in kernel.steps] == [1] * (2 * p)

    def test_gate_noise_fuses_each_mixer_into_a_cost_block(self, benchmarks):
        # p (|E| + 1) steps at hw1: one block per edge with its ZZ rotation
        # and at most one mixer rx, plus one rx that finds no room per layer
        hw1 = load_backend_profiles()["hw1"]
        steps = {name: len(compile_flavor(g, PrunedFlavor((), hw1), 2).kernel.steps)
                 for name, g in benchmarks.items()}
        assert steps == {"cycle3": 8, "cycle4": 10, "complete4_with_diagonals": 14,
                         "graph5": 14, "graph6": 18}

    @pytest.mark.parametrize("circuit,backend,digest", [
        pytest.param(("graph6", 1), "ideal1",
                     "6bf2eb064c89f2a0b9e569683f15b3297a7c7e8c71b515e079f1cf22293182b0", id="graph6-p1-ideal1"),
        pytest.param(("graph6", 2), "ideal1",
                     "83f8e9653979206a2eea036ca79d07e98b9a344dac664cc9b390e0f565189b3f", id="graph6-p2-ideal1"),
        pytest.param(("graph6", 1), "hw1",
                     "c822298d7241785787da619aa019a600dc47cd17fa5adf1adde3f148b10d0f73", id="graph6-p1-hw1"),
        pytest.param(("graph6", 2), "hw1",
                     "b71909b778a3a195b6c37394f9473e0e027522c29ece71c6c1b62c81e3bf38c2", id="graph6-p2-hw1"),
        pytest.param(("graph6", 2), "hw2",
                     "3b6a36f1ff6c67992d20c76ec1c417a880ca8b75d58761f7e527ff4a194c1daa", id="graph6-p2-hw2"),
        pytest.param(("graph6", 1), "line6",
                     "45474ccd9fef9fbfd7bf87704991bc12bb49192817913274148024f5c185b93f", id="graph6-p1-line6"),
        pytest.param(("graph6", 2), "line6",
                     "5698e118f88e69c71e7912c39b8bd453a323e4cac07449977868dae42b09cf65", id="graph6-p2-line6"),
        # 8 qubits: each mixer rx is its own single-rotation step
        pytest.param(("cycle(8)", 1), "ideal1",
                     "46a752dfd1f3c382a8023fb1a6bfd40c210d6836a7bb9049ce2300d5d45e2cda", id="cycle8-p1-ideal1"),
        pytest.param("random", "ideal1",
                     "5d8c963347a8d735206973950d50bc32a660a225af3a7e312c175bd0dc42b8d7", id="random-ideal1"),
        pytest.param("random", "hw1",
                     "44886c64f6be76f70b8fa472b5a8318d71d0352638596ce166536e215a2bade3", id="random-hw1"),
    ])
    def test_compiled_kernels_are_pinned(self, circuit, backend, digest):
        # every array a kernel holds (the start state, each step's rows or
        # transfer matrix, each group's parts, the readout) as first compiled,
        # so a faster compile may not move one bit
        if circuit == "random":
            c = _pinned_circuit()
            kernel = compile_kernel(c, load_backend_profiles()[backend].noise,
                                    list(range(sum(g.angle is not None for g in c.gates))))
        else:
            profiles = {**load_backend_profiles(), "line6": BackendProfile("line6", coupling=line(6))}
            name, p = circuit
            kernel = compile_flavor(benchmark_graph(name), PrunedFlavor((), profiles[backend]), p).kernel
        assert _kernel_digest(kernel) == digest

    @pytest.mark.parametrize("name", ["cycle4", "graph5"])
    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(0.01, 0.03, 0.02)])
    def test_compiled_once_evolves_at_fresh_angles(self, name, noise):
        # a QAOA kernel compiles once with each rotation reading its layer's
        # gamma or beta, then takes only the 2p angles at every evaluation
        g, p = benchmark_graph(name), 2
        rng = np.random.default_rng(18)
        slots = [k for layer in range(p) for k in [layer] * len(g.edges) + [p + layer] * g.n]
        kernel = compile_kernel(build_qaoa(g, random_params(rng, p)), noise, slots)
        for _ in range(3):
            params = random_params(rng, p)
            angles, c = 2.0 * np.array(params.gammas + params.betas), build_qaoa(g, params)
            if noise.has_gate_noise:
                got, want = kernel.probabilities(angles), kraus_reference(c, noise)
            else:
                got, want = kernel.evolve(angles), _dense_statevector(c)
            assert np.abs(got - want).max() < 1e-12

    def test_wide_circuit(self):
        g = benchmark_graph("cycle(16)")
        state = run_statevector(build_qaoa(g, ParamVector((0.7, 1.9), (0.4, 1.1))))
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-10
        uniform = run_statevector(build_qaoa(g, ParamVector((0.0, 0.0), (0.0, 0.0))))
        assert np.allclose(np.abs(uniform) ** 2, 2.0**-16, rtol=0, atol=1e-14)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            run_statevector(Circuit(21, ()))

    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(p1=0.01)])
    def test_rotation_free_state_cannot_alter_its_kernel(self, noise):
        # with no steps, evolve hands back the compiled start state itself
        kernel = compile_kernel(BELL, noise, [])
        with pytest.raises(ValueError):
            kernel.evolve(np.array([]))[0] = 0.0

    def test_qubit_zero_is_most_significant(self):
        # X on qubit 0 of two -> |10> -> index 2
        c = Circuit(2, (rx(0, math.pi),))
        probs = np.abs(run_statevector(c)) ** 2
        assert np.argmax(probs) == 2


class TestRunShots:
    def test_bell_frequencies(self, ideal_backend):
        res = counts(run_shots(BELL, ideal_backend, 4096))
        assert set(res) <= {"00", "11"}
        # binomial 4 sigma band around 0.5
        assert abs(res.get("00", 0) / 4096 - 0.5) < 0.03

    def test_counts_sum_to_shots(self, ideal_backend):
        tally = run_shots(BELL, ideal_backend, 999)
        assert tally.dtype == np.int64 and len(tally) == 4
        assert sum(counts(tally).values()) == 999 == tally.sum()

    def test_deterministic_given_seed_circuit_shots(self, ideal_backend, noisy_backend):
        for backend in (ideal_backend, noisy_backend):
            g = benchmark_graph("cycle4")
            c = build_qaoa(g, ParamVector((0.4,), (0.3,)))
            assert np.array_equal(run_shots(c, backend, 2048), run_shots(c, backend, 2048))

    @pytest.mark.parametrize("seed", [0, 11, 2**32, 2**40 + 5])
    def test_shot_rng_matches_the_seed_list_form(self, seed):
        # numpy splits each int of a seed list into 32-bit words; shot_rng
        # hands it those words as one array
        text = serialize(BELL)
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        words = [int(w) for w in np.frombuffer(digest[:16], dtype=np.uint32)]
        for shots in (1, 4096, 2**33 + 1):
            listed = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, shots, *words])))
            assert shot_rng(seed, shots, text).random(8).tolist() == listed.random(8).tolist()

    def test_shot_rng_rejects_negatives_once_its_words_are_cached(self):
        text = serialize(BELL)
        shot_rng(3, 16, text)
        for seed, shots in ((-3, 16), (3, -16)):
            with pytest.raises(ValueError, match="must be >= 0"):
                shot_rng(seed, shots, text)

    def test_different_seeds_differ(self):
        b1 = BackendProfile("a", seed=1)
        b2 = BackendProfile("b", seed=2)
        assert counts(run_shots(BELL, b1, 4096)) != counts(run_shots(BELL, b2, 4096))

    def test_maximal_readout_flip_scrambles_to_uniform(self):
        backend = BackendProfile("scram", noise=NoiseModel(0.0, 0.0, 0.5), seed=5)
        g = benchmark_graph("cycle3")
        c = build_qaoa(g, ParamVector((0.7,), (0.4,)))
        assert stats.chisquare(run_shots(c, backend, 8192)).pvalue > 1e-3

    def test_noiseless_frequencies_converge_to_amplitudes(self, ideal_backend):
        rng = np.random.default_rng(4)
        g = benchmark_graph("cycle4")
        c = build_qaoa(g, random_params(rng, 1))
        probs = np.abs(run_statevector(c)) ** 2
        empirical = run_shots(c, ideal_backend, 16384) / 16384
        tv = 0.5 * np.abs(empirical - probs).sum()
        assert tv < 0.02

    def test_noise_lowers_expectation_at_optimized_params(self, ideal_backend):
        # paired comparison against the exact expectation over 10 noisy seeds
        g = benchmark_graph("cycle4")
        params = ParamVector((-0.3927,), (0.3927,))  # near the p=1 ring optimum
        c = build_qaoa(g, params)
        ideal_e = compile_flavor(g, PrunedFlavor((), ideal_backend), 1).exact_expectation(params.gammas + params.betas)
        noisy_es = []
        for seed in range(10):
            backend = BackendProfile(f"n{seed}", noise=NoiseModel(0.002, 0.02, 0.035), seed=seed)
            noisy_es.append(expectation_full_cost(g, run_shots(c, backend, 4096)))
        assert np.mean(noisy_es) < ideal_e

    def test_depolarizing_channel_matches_analytic_value(self):
        # rx(pi) prepares |1>; only the Z branch of a depolarizing event
        # keeps the outcome, so P(1) = (1 - p) + p/3.
        c = Circuit(1, (rx(0, math.pi),))
        backend = BackendProfile("chk", noise=NoiseModel(p1=0.3), seed=123)
        assert run_shots(c, backend, 60000)[1] / 60000 == pytest.approx(0.8, abs=0.012)

    def test_readout_flip_matches_analytic_value(self):
        c = Circuit(1, (rx(0, math.pi),))
        backend = BackendProfile("chk", noise=NoiseModel(readout_flip=0.1), seed=5)
        assert run_shots(c, backend, 60000)[1] / 60000 == pytest.approx(0.9, abs=0.01)

    def test_depolarizing_monotone_in_p2(self):
        g = benchmark_graph("cycle4")
        c = build_qaoa(g, ParamVector((-0.3927,), (0.3927,)))
        means = {}
        for p2 in (0.0, 0.05):
            es = []
            for seed in range(20):
                backend = BackendProfile(f"m{seed}", noise=NoiseModel(0.0, p2, 0.0), seed=seed)
                es.append(expectation_full_cost(g, run_shots(c, backend, 2048)))
            means[p2] = np.mean(es)
        assert means[0.05] <= means[0.0]

    def test_conformance_enforced_when_coupling_present(self):
        backend = BackendProfile("line", coupling=line(4), seed=0)
        with pytest.raises(RoutingError):
            run_shots(Circuit(4, (cx(0, 3),)), backend, 16)

    def test_conformant_circuit_accepted_with_coupling(self):
        backend = BackendProfile("line", coupling=line(2), seed=0)
        assert run_shots(BELL, backend, 64).sum() == 64

    def test_shots_must_be_positive(self, ideal_backend):
        with pytest.raises(ValueError):
            run_shots(BELL, ideal_backend, 0)

    def test_trailing_measure_optional(self, ideal_backend):
        # measurement is implied; the hash differs so only the support must match
        bare = Circuit(2, (h(0), cx(0, 1)))
        assert set(counts(run_shots(bare, ideal_backend, 2048))) <= {"00", "11"}

    def test_ideal_counts_pinned(self, ideal_backend):
        # the draw order for noiseless backends: one choice() over |psi|^2;
        # these counts must not move when the sampler changes
        c = build_qaoa(benchmark_graph("cycle4"), ParamVector((0.4,), (0.3,)))
        assert counts(run_shots(c, ideal_backend, 64)) == {
            "0000": 20, "0011": 4, "0110": 5, "0111": 2, "1000": 1, "1001": 2,
            "1010": 1, "1011": 1, "1100": 5, "1101": 2, "1111": 21,
        }

    def test_routed_counts_pinned(self):
        # graph6 minus one edge routed onto a 6-qubit line (8 SWAPs): the
        # draw of the wire text that leaves the client
        line6 = BackendProfile("line6", coupling=line(6), seed=13)
        g = benchmark_graph("graph6")
        flavor = compile_flavor(g, PrunedFlavor((g.edges[2],), line6), 2)
        x = (0.4, 0.9, 0.6, 0.3)
        assert flavor.routed.swap_count == 8
        assert counts(run_shots(parse(flavor.wire_text(x)), line6, 64)) == {
            "000000": 6, "000010": 3, "000111": 14, "001000": 2, "001010": 1, "001101": 2,
            "010000": 2, "010001": 1, "011111": 4, "100000": 1, "101011": 1, "101111": 1,
            "110011": 1, "110100": 5, "110111": 1, "111000": 9, "111011": 3, "111101": 1,
            "111111": 6,
        }
        assert flavor.expectation(x, 64) == 2.375

    def test_readout_only_counts_pinned(self):
        backend = BackendProfile("ro", noise=NoiseModel(readout_flip=0.04), seed=17)
        c = build_qaoa(benchmark_graph("cycle4"), ParamVector((0.4,), (0.3,)))
        assert counts(run_shots(c, backend, 64)) == {
            "0000": 11, "0001": 3, "0010": 3, "0011": 4, "0100": 1, "0110": 5, "1000": 3,
            "1001": 4, "1011": 3, "1100": 7, "1101": 2, "1110": 1, "1111": 17,
        }

    def test_noisy_counts_fit_exact_distribution(self):
        hw1 = load_backend_profiles()["hw1"]
        c = build_qaoa(benchmark_graph("graph5"), ParamVector((0.5, 0.9), (0.6, 0.3)))
        probs = outcome_probabilities(c, hw1.noise)
        assert stats.chisquare(run_shots(c, hw1, 20000), 20000 * probs).pvalue > 1e-3

    def test_gate_noise_width_capped(self, noisy_backend):
        with pytest.raises(CapacityError):
            run_shots(Circuit(11, (h(0),)), noisy_backend, 16)

    def test_ten_qubit_ring_samples_sanely(self, ideal_backend):
        g = benchmark_graph("cycle(10)")
        c = build_qaoa(g, ParamVector((0.0,), (0.0,)))  # uniform superposition
        tally = run_shots(c, ideal_backend, 8192)
        assert len(tally) == 1 << 10
        sampled = expectation_full_cost(g, tally)
        assert sampled == pytest.approx(len(g.edges) / 2, abs=0.15)


class TestSampleTally:
    @given(st.integers(1, 8), st.integers(1, 16384), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_bincount_of_choice(self, n, shots, pyrandom):
        # zero bins, and float-error negatives that the sampler clips to zero
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        size = 1 << n
        probs = rng.random(size) ** 3 * (rng.random(size) < 0.6)
        probs[rng.random(size) < 0.1] = -1e-17
        probs[rng.integers(size)] = rng.random() + 1e-3
        seed = pyrandom.randrange(2**32)
        tally = sample_tally(probs, np.random.default_rng(seed), shots)
        clipped = np.maximum(probs, 0.0)
        outcomes = np.random.default_rng(seed).choice(size, size=shots, p=clipped / clipped.sum())
        assert np.array_equal(tally, np.bincount(outcomes, minlength=size))

    def test_leaves_probs_unchanged(self):
        probs = np.array([0.25, -1e-17, 0.5, 0.0, -0.5, 0.75])
        before = probs.copy()
        sample_tally(probs, np.random.default_rng(0), 64)
        assert probs.tobytes() == before.tobytes()

    @pytest.mark.parametrize("probs", [[0.5, np.nan, 0.5, 0.0], [0.0] * 4, [np.inf, 1.0],
                                       [-0.5, 0.0]])
    def test_bad_distribution_raises(self, probs):
        with pytest.raises(ValueError):
            sample_tally(np.array(probs), np.random.default_rng(0), 16)


class TestExactDistribution:
    @pytest.mark.parametrize("name", ["cycle3", "cycle4", "graph5",
                                      "complete4_with_diagonals", "graph6"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("backend", ["ideal1", "hw1", "hw2"])
    def test_matches_kraus_reference(self, name, p, backend):
        noise = load_backend_profiles()[backend].noise
        c = build_qaoa(benchmark_graph(name), random_params(np.random.default_rng(p), p))
        probs = outcome_probabilities(c, noise)
        assert np.abs(probs - kraus_reference(c, noise)).max() < 1e-12

    @pytest.mark.parametrize("name", ["cycle4", "complete4_with_diagonals", "graph5", "graph6"])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("backend", ["ideal1", "hw1", "hw2"])
    def test_routed_matches_kraus_reference(self, name, p, backend):
        # shuffled node labels on a line: SWAP triples, and cx blocks whose
        # control is the second qubit of the fused pair
        g = benchmark_graph(name)
        rng = np.random.default_rng(10 * p + g.n)
        params = random_params(rng, p)
        routed = transpile(build_qaoa(relabel(g, rng.permutation(g.n)), params),
                           line(g.n))
        assert routed.swap_count > 0
        noise = load_backend_profiles()[backend].noise
        probs = outcome_probabilities(routed.circuit, noise)
        assert np.abs(probs - kraus_reference(routed.circuit, noise)).max() < 1e-12

    def test_noiseless_is_statevector_squared(self):
        c = build_qaoa(benchmark_graph("graph5"), ParamVector((0.5,), (0.6,)))
        assert np.array_equal(outcome_probabilities(c), np.abs(run_statevector(c)) ** 2)


class TestExpectation:
    def test_alternating_cut_on_cycle4(self):
        g = benchmark_graph("cycle4")
        assert expectation_full_cost(g, 100 * np.bincount([0b0101], minlength=16)) == 4.0

    def test_uniform_counts_average_half_the_edges(self):
        g = benchmark_graph("cycle4")
        assert expectation_full_cost(g, np.ones(16, dtype=np.int64)) == pytest.approx(2.0)

    def test_all_zeros_cuts_nothing(self):
        g = benchmark_graph("cycle4")
        assert expectation_full_cost(g, 10 * np.bincount([0], minlength=16)) == 0.0

    def test_tally_width_checked(self):
        g = benchmark_graph("cycle4")
        for width in (3, 5):
            with pytest.raises(ValueError):
                expectation_full_cost(g, np.bincount([1], minlength=1 << width))

    def test_uniform_average_is_half_edges_every_benchmark(self, benchmarks):
        # closed form: every edge crosses for exactly half the assignments
        for g in benchmarks.values():
            assert cut_values_vector(g).mean() == pytest.approx(len(g.edges) / 2)

    def test_exact_expectation_matches_counts_limit(self, ideal_backend):
        g = benchmark_graph("cycle3")
        c = build_qaoa(g, ParamVector((0.6,), (0.35,)))
        exact = compile_flavor(g, PrunedFlavor((), ideal_backend), 1).exact_expectation((0.6, 0.35))
        sampled = expectation_full_cost(g, run_shots(c, ideal_backend, 16384))
        assert abs(exact - sampled) < 0.05


def remap_counts_reference(counts: dict[str, int], final_layout) -> dict[str, int]:
    """Remap on bitstring counts, character by character: the reference
    the tally permutation is checked against."""
    out: dict[str, int] = {}
    for bits, cnt in counts.items():
        logical = "".join(bits[p] for p in final_layout)
        out[logical] = out.get(logical, 0) + cnt
    return dict(sorted(out.items()))


class TestRemapCounts:
    def test_identity(self):
        tally = np.array([0, 3, 5, 0])
        assert np.array_equal(remap_counts(tally, (0, 1)), tally)

    def test_swapped_layout(self):
        assert counts(remap_counts(np.array([0, 3, 0, 0]), (1, 0))) == {"10": 3}

    def test_drops_ancilla_bits(self):
        res = remap_counts(np.array([0, 0, 2, 1, 0, 0, 0, 0]), (0, 1))
        assert np.array_equal(res, [0, 3, 0, 0])

    @given(st.integers(1, 5), st.integers(0, 2), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_bitstring_reference(self, n, spare, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        m = n + spare
        tally = rng.integers(0, 6, size=1 << m) * (rng.random(1 << m) < 0.5)
        layout = tuple(int(q) for q in rng.permutation(m)[:n])
        res = remap_counts(tally, layout)
        expected = remap_counts_reference(counts(tally), layout)
        assert list(counts(res).items()) == list(expected.items())
        assert len(res) == 1 << n and res.sum() == tally.sum()


class TestBackendConfig:
    def test_bundled_profiles(self):
        profiles = load_backend_profiles()
        assert {"ideal1", "ideal2", "hw1", "hw2"} <= set(profiles)
        assert not profiles["ideal1"].is_noisy
        assert profiles["hw1"].is_noisy

    def test_backend_from_dict_with_coupling(self):
        b = backend_from_dict({
            "name": "x", "p1": 0.001, "p2": 0.01, "readout_flip": 0.0,
            "coupling": [[0, 1], [1, 2]], "seed": 9,
        })
        assert b.coupling.n == 3
        assert b.noise.p1 == 0.001
        sized = backend_from_dict({"name": "x", "coupling": [[0, 1]], "num_physical": 4})
        assert sized.coupling == Graph.make(4, [(0, 1)])
        twice = backend_from_dict({"name": "x", "coupling": [[1, 2], [0, 1], [2, 1]]})
        assert twice.coupling == b.coupling  # a pair listed twice is one edge

    @pytest.mark.parametrize("fields, key", [
        ({"coupling": []}, "'coupling'"),  # used to load as all-to-all
        ({"num_physical": 4}, "'num_physical'"),  # used to be ignored
        ({"coupling": [[0, 1]], "num_physical": 1}, "'num_physical'"),
        ({"coupling": [[0, 1], [1, 1]]}, "'coupling'"),  # a self-loop
        ({"coupling": [[-1, 0], [0, 1]]}, "'coupling'"),  # a negative qubit
    ])
    def test_backend_from_dict_rejects_misread_coupling(self, fields, key):
        with pytest.raises(ValueError, match=key):
            backend_from_dict({"name": "x", **fields})

    def test_noise_probability_bounds(self):
        with pytest.raises(ValueError):
            NoiseModel(p1=0.6)
        with pytest.raises(ValueError):
            NoiseModel(readout_flip=-0.1)

    def test_duplicate_profile_names_rejected(self, tmp_path):
        # a text that fails to parse is not cached: every call raises
        path = tmp_path / "profiles.json"
        path.write_text('[{"name": "a", "seed": 1}, {"name": "a", "seed": 2}]')
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate"):
                load_backend_profiles(path)

    def test_each_call_returns_its_own_profiles(self, tmp_path):
        # each text is parsed once, so the dict a caller edits must be a copy
        path = tmp_path / "profiles.json"
        path.write_text('[{"name": "a", "seed": 1}]')
        for load in (load_backend_profiles, lambda: load_backend_profiles(path)):
            first = load()
            names = set(first)
            first.clear()
            first["x"] = BackendProfile("x")
            assert set(load()) == names
