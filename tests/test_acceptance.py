"""End-to-end acceptance gate.

Eight numbered checks, one test each, run against the public API only.
The Monte-Carlo banks behind the trend checks are built once per module
and shared. Every check prints a single ``ACCEPTANCE <n> PASS|FAIL``
verdict line carrying its measured numbers, so a transcript of this file
doubles as the acceptance report.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from sidesched.assignment import compress, expand_solution
from sidesched.cli import run_experiment
from sidesched.config import ExperimentConfig
from sidesched.grid import ResourceGrid
from sidesched.metrics import iter_cells
from sidesched.scenario import Cluster, ScenarioModel, pad_to_square
from sidesched.sideinfo import QuantizerSpec, quantize
from sidesched.solvers import (evaluate, solve_greedy, solve_oracle,
                               solve_proposed, solve_random)
from util import assignment_to_x, build_constraint_matrix, decision_of

MASTER_SEED = 20260822
SEEDS = 100
GRID = ResourceGrid(k=7, l=100)

UNIFORM = ScenarioModel(kind="uniform")
# Mixed vehicle population: a minority sits in a bad channel state and
# good subchannels are scarce for everyone (std small against the bin
# width), which is where coordination between vehicles actually matters.
MIXED = ScenarioModel(kind="two-state", mean_db=10.0, std_db=5.0,
                      bad_mean_db=-5.0, p_bad=0.3)


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _mc_block(model, n, series):
    """{(method, bits): (sum rates, worst rates)} over the seed bank.

    Truth values in bps. The cells come from ``iter_cells`` over every
    method and width the series name; cells of no series are dropped.
    """
    out = {s: (np.empty(SEEDS), np.empty(SEEDS)) for s in series}
    config = ExperimentConfig(
        grid=GRID, scenario=model, cluster_sizes=(n,),
        bits_list=tuple(dict.fromkeys(b for _, b in series)),
        methods=tuple(dict.fromkeys(m for m, _ in series)),
        repetitions=SEEDS, master_seed=MASTER_SEED,
        quant_lo_db=model.sinr_floor_db, quant_hi_db=model.sinr_ceil_db)
    points = [(f"N={n}", Cluster(id=n, n_vehicles=n))]
    for rep, _, cell in iter_cells(config, points):
        if (cell.method, cell.bits) in out:
            sums, worst = out[cell.method, cell.bits]
            sums[rep] = cell.sum_rate_truth_bps
            worst[rep] = cell.vehicle_rates_bps.min()
    return out


@pytest.fixture(scope="module")
def bank():
    """Monte-Carlo result bank shared by the trend checks (5, 6, 7)."""
    out = {}
    t0 = time.perf_counter()
    full_load = _mc_block(UNIFORM, 100, [
        ("proposed", 0), ("proposed", 2), ("proposed", 3), ("proposed", 4),
        ("greedy", 0), ("greedy", 2), ("greedy", 3), ("greedy", 4),
        ("random", 0)])
    out["uniform_full_load_seconds"] = time.perf_counter() - t0
    out.update({("uniform", m, b, 100): r for (m, b), r in full_load.items()})
    sparse = _mc_block(UNIFORM, 10, [(m, b) for m in ("proposed", "greedy")
                                     for b in (2, 3, 4)])
    out.update({("uniform", m, b, 10): r for (m, b), r in sparse.items()})
    mixed = _mc_block(MIXED, 100, [("proposed", b) for b in (0, 1, 2, 3, 4, 8)]
                      + [("greedy", 0), ("greedy", 2)])
    out.update({("mixed", m, b, 100): r for (m, b), r in mixed.items()})
    return out


class TestAcceptanceGate:
    def test_accept_1_reduced_route_matches_exhaustive_optimum(self):
        # compress -> optimal matching -> expand against full enumeration
        rng = np.random.default_rng(901)
        t0 = time.perf_counter()
        n_instances = 1000
        worst_rel = 0.0
        for _ in range(n_instances):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(2, 7))
            n = int(rng.integers(1, l + 1))
            grid = ResourceGrid(k=k, l=l)
            sinr = rng.uniform(-15.0, 35.0, (n, k * l))
            if rng.random() < 0.3:
                sinr = np.round(sinr)  # tie-heavy inputs
            bits = int(rng.integers(0, 4))
            q = QuantizerSpec(bits=bits) if bits else None

            decision = decision_of(sinr, q, grid.b_hz)
            reduced = compress(decision.values.ravel(), grid.k, grid.l)
            reduced = replace(reduced, d=pad_to_square(reduced.d, grid))
            asg = expand_solution(solve_proposed(reduced), reduced)
            _, a = evaluate(asg, decision, decision)
            _, b = evaluate(solve_oracle(decision, grid), decision, decision)

            worst_rel = max(worst_rel, abs(a - b) / max(abs(b), 1e-300))
        elapsed = time.perf_counter() - t0
        ok = worst_rel <= 1e-12 and elapsed < 30.0
        _verdict(1, ok,
                 f"reduced route equals exhaustive optimum on {n_instances} "
                 f"instances (worst rel err {worst_rel:.2e}, {elapsed:.1f}s)")

    def test_accept_2_every_solver_satisfies_the_constraints(self):
        rng = np.random.default_rng(902)
        failures = []
        for k in (1, 2, 3):
            for l in (2, 3, 4):
                grid = ResourceGrid(k=k, l=l)
                a_mat = build_constraint_matrix(k, l).astype(np.int64)
                ones = np.ones(2 * l, dtype=np.int64)
                sinr = rng.uniform(-15.0, 35.0, (l, k * l))
                decision = decision_of(sinr, None, grid.b_hz)
                reduced = compress(decision.values.ravel(), grid.k, grid.l)
                by_solver = {
                    "proposed": expand_solution(solve_proposed(reduced),
                                                reduced),
                    "greedy": solve_greedy(reduced),
                    "oracle": solve_oracle(decision, grid),
                    "random": solve_random(grid, l, np.random.default_rng(7)),
                }
                for name, assn in by_solver.items():
                    x = assignment_to_x(assn.subchannel, k, l)
                    if not np.array_equal(a_mat @ x, ones):
                        failures.append((name, k, l))
        ok = not failures
        _verdict(2, ok,
                 "A @ x = 1 exactly for all four solvers over k in 1..3, "
                 f"l in 2..4 (violations: {failures or 'none'})")

    def test_accept_3_soft_compression_stays_within_bound(self):
        rng = np.random.default_rng(903)
        beta = 1e3
        lo_ok, hi_ok = True, True
        for trial in range(100):
            k = int(rng.integers(2, 8))
            l = int(rng.integers(2, 9))
            scale = 1.0 if trial % 2 else 1.5e7  # exercise both magnitudes
            c = rng.uniform(0.0, scale, k * l * l)
            exact = compress(c, k, l).d
            soft = compress(c, k, l, beta=beta).d
            gap = soft - exact
            lo_ok &= bool(gap.min() >= -1e-12)
            hi_ok &= bool(gap.max() <= np.log(k) / beta + 1e-12)
        ok = lo_ok and hi_ok
        _verdict(3, ok,
                 f"softened block maxima within [0, ln(k)/{beta:.0f}] of exact "
                 f"on 100 cost vectors (lower bound {lo_ok}, upper {hi_ok})")

    def test_accept_4_quantizer_bit_exactness_and_properties(self):
        cases_ok = (
            quantize(QuantizerSpec(bits=2), 0.0) == (1, 3.75)
            and quantize(QuantizerSpec(bits=1), 35.0) == (1, 22.5)
            and quantize(QuantizerSpec(bits=3), -40.0) == (0, -11.875)
        )
        rng = np.random.default_rng(904)
        xs = rng.uniform(-60.0, 80.0, 100_000)
        order = np.argsort(xs)
        idem_ok, mono_ok = True, True
        for bits in range(1, 9):
            q = QuantizerSpec(bits=bits)
            idx, rec = quantize(q, xs)
            idx2, rec2 = quantize(q, rec)
            idem_ok &= bool(np.array_equal(idx, idx2) and np.array_equal(rec, rec2))
            mono_ok &= bool(np.all(np.diff(idx[order]) >= 0)
                            and np.all(np.diff(rec[order]) >= 0))
        ok = cases_ok and idem_ok and mono_ok
        _verdict(4, ok,
                 f"pinned examples exact ({cases_ok}), idempotent ({idem_ok}) "
                 f"and monotone ({mono_ok}) over 1e5 inputs x 8 widths")

    def test_accept_5_method_ordering_at_full_load(self, bank):
        p0 = bank[("uniform", "proposed", 0, 100)][0]
        g0 = bank[("uniform", "greedy", 0, 100)][0]
        r0 = bank[("uniform", "random", 0, 100)][0]
        per_seed = bool(np.all(p0 >= g0 * (1 - 1e-12)))
        mean_gr = bool(g0.mean() >= r0.mean())
        wp2 = bank[("uniform", "proposed", 2, 100)][1].mean()
        wg2 = bank[("uniform", "greedy", 2, 100)][1].mean()
        worst_order = bool(wp2 > wg2)
        elapsed = bank["uniform_full_load_seconds"]
        timed = elapsed < 120.0
        ok = per_seed and mean_gr and worst_order and timed
        _verdict(5, ok,
                 f"per-seed proposed>=greedy {per_seed}; mean greedy "
                 f"{g0.mean() / 1e6:.1f} >= random {r0.mean() / 1e6:.1f} Mbps; "
                 f"2-bit worst rate {wp2 / 1e6:.3f} > {wg2 / 1e6:.3f} Mbps; "
                 f"{elapsed:.1f}s < 120s")

    def test_accept_6_rate_grows_with_feedback_resolution(self, bank):
        means = {b: bank[("mixed", "proposed", b, 100)][0].mean()
                 for b in (0, 1, 2, 3, 4, 8)}
        seq = [means[b] for b in (1, 2, 3, 4, 8)]
        monotone = all(seq[i + 1] >= seq[i] * (1 - 0.005)
                       for i in range(len(seq) - 1))
        g0 = bank[("mixed", "greedy", 0, 100)][0].mean()
        g2 = bank[("mixed", "greedy", 2, 100)][0].mean()
        drop_p = means[0] - means[2]
        drop_g = g0 - g2
        smaller = bool(drop_p < drop_g)
        ok = monotone and smaller
        _verdict(6, ok,
                 "mean sum rate non-decreasing in bits within 0.5% "
                 f"({[round(float(v) / 1e6, 1) for v in seq]} Mbps, {monotone}); "
                 f"ideal-to-2-bit drop proposed {drop_p / 1e6:.1f} < greedy "
                 f"{drop_g / 1e6:.1f} Mbps ({smaller})")

    def test_accept_7_greedy_collapses_faster_with_density(self, bank):
        details = []
        ok = True
        for bits in (2, 3, 4):
            wp10 = bank[("uniform", "proposed", bits, 10)][1].mean()
            wp100 = bank[("uniform", "proposed", bits, 100)][1].mean()
            wg10 = bank[("uniform", "greedy", bits, 10)][1].mean()
            wg100 = bank[("uniform", "greedy", bits, 100)][1].mean()
            frac_p = 1.0 - wp100 / wp10
            frac_g = 1.0 - wg100 / wg10
            ok &= bool(frac_g > frac_p)
            details.append(f"{bits}b: greedy -{frac_g:.1%} vs proposed -{frac_p:.1%}")
        _verdict(7, ok,
                 "worst-rate drop from 10 to 100 vehicles larger for greedy "
                 f"at every width ({'; '.join(details)})")

    def test_accept_8_reruns_are_byte_identical(self, tmp_path):
        def config(out):
            return ExperimentConfig(
                grid=ResourceGrid(k=3, l=6),
                scenario=ScenarioModel(kind="two-state"),
                cluster_sizes=(4, 6),
                bits_list=(0, 2),
                methods=("proposed", "greedy", "random", "oracle"),
                repetitions=2,
                master_seed=424242,
                out_dir=str(out),
                cdf_grid_points=12,
            )

        run_experiment(config(tmp_path / "a"))
        run_experiment(config(tmp_path / "b"))
        names_a = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        names_b = sorted(p.name for p in (tmp_path / "b").glob("*.csv"))
        same_sets = names_a == names_b and len(names_a) >= 2
        identical = same_sets and all(
            (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
            for name in names_a)
        _verdict(8, identical,
                 f"repeated run produced byte-identical {names_a}")
