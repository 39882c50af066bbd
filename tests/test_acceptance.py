"""Acceptance suite: one test per numbered criterion, each ending in a
single printed PASS line (visible with `pytest -s` or `-rA`) that records
the measured values and elapsed time against the pinned budget.

The heavy fixtures (a freshly trained policy for criteria 8-9) are module
scoped so the 30k-step training run happens once.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from policyprobe import attack as atk
from policyprobe import checkpoint as cp
from policyprobe import harness, nn, perturb, spectral
from policyprobe import qlearning as ql
from policyprobe.cli import main as cli_main
from policyprobe.envs import make_env, make_spec, oracle_return

from conftest import DATA_DIR
from test_spectral import direct_dft2


def _pass(num: int, detail: str) -> None:
    print(f"[criterion {num:>2}] PASS  {detail}")


# ---------------------------------------------------------------------------
# 1. Impact formula reproduces the published Pong C&W pair
# ---------------------------------------------------------------------------

def test_c01_impact_matches_published_pong_pair():
    value = harness.impact(21.0, -20.8, -21.0)
    assert abs(value - 0.99524) <= 0.0005
    _pass(1, f"impact(21, -20.8, -21) = {value:.6f} (pinned 0.99524 +/- 5e-4)")


# ---------------------------------------------------------------------------
# 2. Backprop vs central finite differences, every coordinate
# ---------------------------------------------------------------------------

def _fd_dense_net(seed: int) -> nn.ParamSet:
    rng = np.random.default_rng([seed, 31])
    return nn.ParamSet([
        nn.DenseLayer(rng.normal(0, 0.5, (8, 6)), rng.normal(0, 0.3, 8),
                      activation="relu"),
        nn.DenseLayer(rng.normal(0, 0.5, (5, 8)), rng.normal(0, 0.3, 5),
                      activation="relu"),
        nn.DenseLayer(rng.normal(0, 0.5, (3, 5)), rng.normal(0, 0.3, 3),
                      activation="identity"),
    ])


def _fd_conv_net(seed: int) -> nn.ParamSet:
    rng = np.random.default_rng([seed, 37])
    return nn.ParamSet([
        nn.ConvLayer(rng.normal(0, 0.5, (3, 3, 1, 3)), rng.normal(0, 0.3, 3),
                     stride=2, padding=1, activation="relu"),
        nn.ConvLayer(rng.normal(0, 0.5, (3, 3, 3, 4)), rng.normal(0, 0.3, 4),
                     stride=2, padding=0, activation="relu"),
        nn.DenseLayer(rng.normal(0, 0.5, (3, 4)), rng.normal(0, 0.3, 3),
                      activation="identity"),
    ])


def _min_preactivation(net: nn.ParamSet, x: np.ndarray) -> float:
    """Smallest |pre-activation| over all relu layers: the distance to the
    nearest kink, where finite differences stop being trustworthy."""
    h = np.asarray(x, dtype=np.float64)
    closest = np.inf
    for lay in net.layers:
        if isinstance(lay, nn.DenseLayer):
            pre = h.reshape(-1) @ lay.weight.T + lay.bias
        else:
            pre = nn.conv2d_forward(h[None], lay.weight, lay.bias,
                                    lay.stride, lay.padding)[0]
        if lay.activation == "relu":
            closest = min(closest, float(np.abs(pre).min()))
            h = np.maximum(pre, 0.0)
        else:
            h = pre
    return closest


def test_c02_backprop_matches_central_differences():
    t0 = time.time()
    h = 1e-4
    worst = 0.0
    accepted = attempts = 0
    while accepted < 200:
        attempts += 1
        assert attempts < 500, "kink-free trial rejection rate too high"
        seed = attempts
        if accepted % 5 == 4:
            net = _fd_conv_net(seed)
            x = np.random.default_rng([seed, 41]).uniform(0.1, 0.9, (8, 8, 1))
        else:
            net = _fd_dense_net(seed)
            x = np.random.default_rng([seed, 41]).normal(0, 0.8, 6)
        # Reject draws with a pre-activation within 100h of a relu kink;
        # central differences straddle the kink there and measure the
        # subgradient mismatch, not the backprop implementation.
        if _min_preactivation(net, x) < 100 * h:
            continue
        accepted += 1
        gout = np.random.default_rng([seed, 43]).normal(
            size=nn.forward(net, x)[-1].shape)

        def loss(net_v, x_v):
            return float((nn.forward(net_v, x_v)[-1] * gout).sum())

        tape = []
        nn.forward(net, x, tape)
        grads = nn.backprop_batch(net, x[None], gout[None], "params", tape)
        gin = nn.backprop_batch(net, x[None], gout[None], "input", tape)[0]
        for (_, name, arr), (_, _, garr) in zip(net.arrays(), grads.arrays()):
            flat, gflat = arr.reshape(-1), garr.reshape(-1)
            for k in range(flat.size):
                old = flat[k]
                flat[k] = old + h
                up = loss(net, x)
                flat[k] = old - h
                down = loss(net, x)
                flat[k] = old
                fd = (up - down) / (2 * h)
                rel = abs(fd - gflat[k]) / max(1.0, abs(fd), abs(gflat[k]))
                assert rel < 1e-4, (name, k, rel)
                worst = max(worst, rel)
        xflat, gin_flat = x.reshape(-1), gin.reshape(-1)
        for k in range(xflat.size):
            old = xflat[k]
            xflat[k] = old + h
            up = loss(net, x)
            xflat[k] = old - h
            down = loss(net, x)
            xflat[k] = old
            fd = (up - down) / (2 * h)
            rel = abs(fd - gin_flat[k]) / max(1.0, abs(fd), abs(gin_flat[k]))
            assert rel < 1e-4, ("input", k, rel)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _pass(2, f"200 trials ({attempts - 200} kink rejections), every "
             f"parameter and input coordinate, h={h:g}, worst relative "
             f"error {worst:.2e} < 1e-4, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 3. IBP bounds are never violated by sampled in-ball points
# ---------------------------------------------------------------------------

def test_c03_ibp_bounds_never_violated():
    t0 = time.time()
    radii = (0.01, 0.05, 0.1)
    n_samples = 10_000
    slack = 1e-9
    checked = 0
    margin = np.inf
    for net_seed in range(50):
        rng = np.random.default_rng([net_seed, 53])
        if net_seed % 4 == 3:
            net = _fd_conv_net(net_seed)
            center = rng.uniform(0.0, 1.0, (8, 8, 1))
        else:
            net = _fd_dense_net(net_seed)
            center = rng.uniform(0.0, 1.0, 6)
        for eps in radii:
            lower, upper = nn.ibp_forward_batch(net, (center - eps)[None],
                                                (center + eps)[None])
            lower, upper = lower[0], upper[0]
            samples = center + rng.uniform(-eps, eps,
                                           (n_samples,) + center.shape)
            outs = nn.forward_batch(net, samples)[-1]
            margin = min(margin,
                         float((outs - lower).min()),
                         float((upper - outs).min()))
            assert np.all(outs >= lower - slack)
            assert np.all(outs <= upper + slack)
            checked += n_samples
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _pass(3, f"50 nets x {n_samples} samples x eps {radii}: "
             f"{checked} points inside bounds (worst margin {margin:+.2e}, "
             f"slack {slack:g}), {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 4. Fast transform vs direct sum; band partition; shift invariance
# ---------------------------------------------------------------------------

def test_c04_dft_direct_sum_bands_and_shift():
    t0 = time.time()
    rng = np.random.default_rng(59)
    worst = 0.0
    for size in (8, 16):
        x = rng.uniform(0.0, 1.0, (size, size))
        grid = spectral.dft2(x)
        worst = max(worst, float(np.abs(grid - direct_dft2(x)).max()))
        assert worst < 1e-9
        bands = spectral.energy_profile(grid)
        total = float((np.abs(grid) ** 2).sum())
        assert abs(bands.sum() - total) <= 1e-12 * max(1.0, total)
        shifted = np.roll(np.roll(x, 3, axis=0), -2, axis=1)
        assert np.allclose(np.abs(grid), np.abs(spectral.dft2(shifted)),
                           atol=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _pass(4, f"8x8 and 16x16 vs O(N^4) sum: max abs error {worst:.2e} "
             f"< 1e-9; band partition and shift |F| invariance within "
             f"1e-12; {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# 5. Identity parameters reproduce the input
# ---------------------------------------------------------------------------

def test_c05_identity_parameters_reproduce_input():
    rng = np.random.default_rng(61)
    exact = [
        perturb.PerturbationSpec(family="identity"),
        perturb.PerturbationSpec(family="brightness_contrast",
                                 alpha=1.0, beta=0.0),
        perturb.PerturbationSpec(family="median_blur", kernel=1),
        perturb.PerturbationSpec(family="rotation", degrees=0.0),
        perturb.PerturbationSpec(family="shift", ti=0, tj=0),
        perturb.PerturbationSpec(family="perspective", pt_norm=0.0),
    ]
    for _ in range(10):
        img = rng.integers(0, 256, (16, 16, 1)).astype(np.float64)
        for spec in exact:
            assert np.array_equal(perturb.apply(spec, img), img), spec.label()
        dct = perturb.apply(perturb.PerturbationSpec(family="dct_artifacts",
                                                     kappa=0.0), img)
        assert np.abs(dct - img).max() <= 1e-9
    _pass(5, "all six families exact at identity parameters on 10 images; "
             "dct kappa=0 round trip <= 1e-9")


# ---------------------------------------------------------------------------
# 6. Spectral signatures match the qualitative band placement
# ---------------------------------------------------------------------------

def test_c06_spectral_signatures_of_families():
    t0 = time.time()
    rng = np.random.default_rng(67)
    n_images = 20
    worst_leak = 0.0
    for _ in range(n_images):
        img = rng.integers(120, 138, (16, 16, 1)).astype(np.float64)
        bright = perturb.apply(
            perturb.PerturbationSpec(family="brightness_contrast",
                                     alpha=1.0, beta=10.0), img)
        delta = spectral.band_delta(img, bright)
        assert delta.delta[0] != 0.0
        leak = float(np.abs(delta.delta[1:]).max())
        worst_leak = max(worst_leak, leak)
        assert leak < 1e-9
        ringing = perturb.apply(
            perturb.PerturbationSpec(family="dct_artifacts", kappa=0.5), img)
        assert spectral.band_delta(img, ringing).high_delta < 0.0
        blurred = perturb.apply(
            perturb.PerturbationSpec(family="median_blur", kernel=5), img)
        assert spectral.band_delta(img, blurred).high_delta < 0.0
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _pass(6, f"{n_images} noise images: brightness delta confined to f=0 "
             f"(worst leak {worst_leak:.1e}); dct kappa=0.5 and blur k=5 "
             f"high-band delta < 0 on all {n_images}; {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 7. C&W distances: closed form on the linear fixture, random search on
#    small nets
# ---------------------------------------------------------------------------

def _random_search_best(net: nn.ParamSet, obs: np.ndarray, eps: float,
                        n_draws: int, seed: int) -> float:
    """Closest action flip among n_draws points of the scaled L2 ball."""
    x = obs / 255.0
    a_star = int(np.argmax(nn.forward(net, x)[-1]))
    rng = np.random.default_rng([seed, 71])
    best = np.inf
    for start in range(0, n_draws, 20_000):
        m = min(20_000, n_draws - start)
        dirs = rng.normal(size=(m, x.size))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = eps * rng.uniform(0.0, 1.0, m) ** (1.0 / x.size)
        pts = np.clip(x[None] + radii[:, None] * dirs, 0.0, 1.0)
        outs = nn.forward_batch(net, pts)[-1]
        flips = np.argmax(outs, axis=1) != a_star
        if np.any(flips):
            dists = np.linalg.norm(pts[flips] - x[None], axis=1)
            best = min(best, float(dists.min()))
    return best


def test_c07_cw_closed_form_and_random_search():
    t0 = time.time()
    from test_attack import LINEAR_OBS, linear_two_action_net

    ideal = 0.2 / np.sqrt(2.0)
    spec = atk.AttackSpec(method="cw", p=2.0, epsilon=0.3)
    res = atk.cw_minimal(linear_two_action_net(), np.array(LINEAR_OBS), spec)
    assert res.success
    assert ideal * (1.0 - 1e-9) <= res.distance <= ideal * 1.05

    eps = 0.5
    n_draws = 100_000
    compared = 0
    for seed in range(20):
        rng = np.random.default_rng([seed, 73])
        net = _fd_dense_net(seed)
        obs = rng.integers(0, 256, 6).astype(np.float64)
        cw = atk.cw_minimal(net, obs,
                            atk.AttackSpec(method="cw", p=2.0, epsilon=eps,
                                           cw_restarts=3))
        rand = _random_search_best(net, obs, eps, n_draws, seed)
        if np.isfinite(rand):
            assert cw.success, f"random search flipped net {seed} but cw failed"
            assert cw.distance <= rand + 1e-12
            compared += 1
    assert compared >= 10, "too few nets where any flip exists"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _pass(7, f"linear fixture distance {res.distance:.6f} within 5% of "
             f"closed form {ideal:.6f}; cw <= best of {n_draws} random "
             f"flips on {compared}/20 nets with flips; {elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# 8-9. Desk-scale training and the end-to-end probe on its product
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_vanilla():
    spec = make_spec("pixelgrid", size=8, seed=0)
    t0 = time.time()
    ck = ql.train(spec, ql.TrainConfig(objective="vanilla",
                                       total_steps=30_000, seed=7))
    return spec, ck, time.time() - t0


def test_c08_vanilla_training_reaches_oracle(trained_vanilla):
    spec, ck, elapsed = trained_vanilla
    episodes = list(range(20))
    returns = harness.clean_baseline(ck.params, spec, len(episodes))
    oracle = float(np.mean([oracle_return(spec, s) for s in episodes]))
    assert elapsed < 600.0
    assert returns.mean() >= 0.95 * oracle
    _pass(8, f"30k steps seed 7: mean eval {returns.mean():+.4f} >= "
             f"0.95 x oracle {oracle:+.4f} over 20 paired episodes; "
             f"{elapsed:.0f}s < 600s")


def test_c09_identity_probe_neutral_and_consistent(trained_vanilla):
    spec, ck, _ = trained_vanilla
    t0 = time.time()
    reports = [
        harness.probe(ck.params, spec,
                      perturb.PerturbationSpec(family="identity"), runs=10),
        harness.probe(ck.params, spec,
                      perturb.PerturbationSpec(family="median_blur",
                                               kernel=3), runs=10),
    ]
    identity = reports[0]
    assert abs(identity.impact) <= 0.05
    assert identity.mean_similarity == 0.0
    for report in reports:
        scores = np.array([run.score for run in report.runs])
        sims = np.array([run.mean_similarity for run in report.runs])
        assert report.mean_score == float(np.mean(scores))
        assert report.mean_similarity == float(np.mean(sims))
        n = len(scores)
        assert report.sem_score == float(np.std(scores, ddof=1) / np.sqrt(n))
        assert report.sem_similarity == float(np.std(sims, ddof=1)
                                              / np.sqrt(n))
        assert report.impact == harness.impact(report.score_clean,
                                               report.mean_score,
                                               report.score_min_fixed)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _pass(9, f"identity impact {identity.impact:+.3f} (|I| <= 0.05), mean "
             f"similarity exactly 0; impact and SEM recomputation exact on "
             f"{len(reports)} reports; {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 10. Certified states resist the C&W attack
# ---------------------------------------------------------------------------

def test_c10_certified_states_resist_cw():
    t0 = time.time()
    ck, _ = cp.load_checkpoint(DATA_DIR / "radial_pixelgrid.txt")
    spec = ck.env_spec
    env = make_env(spec)
    states = []
    for seed in range(20):
        obs = env.reset(seed)
        terminal = False
        while not terminal:
            states.append(obs.copy())
            result = env.step(ql.greedy_action(ck.params, obs))
            obs, terminal = result.observation, result.terminal
    grid = (5e-5, 1e-4, 5e-4, 1e-3)
    cert = {eps: [ql.certified(ck.params, s, eps) for s in states]
            for eps in grid}
    fracs = [float(np.mean(cert[eps])) for eps in grid]
    assert fracs[0] > 0.0, "no certified states at the smallest radius"
    for a, b in zip(fracs, fracs[1:]):
        assert b <= a + 1e-12, f"certified fraction increased: {fracs}"
    # The certificate at eps covers every smaller radius (the balls nest),
    # so each state is attacked once at the largest radius it certifies.
    # cw_minimal is deterministic, so a state visited again keeps the
    # verdict of its first attack.
    attacked = successes = 0
    verdicts = {}
    for i, state in enumerate(states):
        certified_radii = [eps for eps in grid if cert[eps][i]]
        if not certified_radii:
            continue
        eps = max(certified_radii)
        key = (state.tobytes(), eps)
        if key not in verdicts:
            verdicts[key] = atk.cw_minimal(
                ck.params, state,
                atk.AttackSpec(method="cw", p=np.inf, epsilon=eps)).success
        attacked += 1
        successes += int(verdicts[key])
    assert successes == 0
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _pass(10, f"fractions {['%.3f' % f for f in fracs]} over eps {grid} "
              f"monotone non-increasing; cw failed on all {attacked} "
              f"certified states, {len(verdicts)} distinct (0 successes); "
              f"{elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 11. Sweep curves (soft criterion: reported, not asserted)
# ---------------------------------------------------------------------------

def _run_sweep(tmp_path, tag, family, parameter, values):
    import json
    manifest = {
        "env": {"id": "pixelgrid", "size": 8, "seed": 0},
        "sweep": {"family": family, "parameter": parameter,
                  "values": values, "runs": 3,
                  "policies": {
                      "vanilla": str(DATA_DIR / "vanilla_pixelgrid.txt"),
                      "radial": str(DATA_DIR / "radial_pixelgrid.txt")}},
    }
    cfg = tmp_path / f"{tag}.json"
    cfg.write_text(json.dumps(manifest))
    out = tmp_path / tag
    assert cli_main(["sweep", "--config", str(cfg),
                     "--out", str(out)]) == 0
    rundir = next(p for p in out.iterdir() if p.is_dir())
    lines = (rundir / "sweep.csv").read_text().splitlines()
    assert lines[0] == cp.SWEEP_CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    # complete: every (policy, value, run) combination appears exactly once
    seen = {(r[0], float(r[2]), int(r[3])) for r in rows}
    assert len(seen) == len(rows) == 2 * len(values) * 3
    for policy in ("vanilla", "radial"):
        for value in values:
            group = [r for r in rows
                     if r[0] == policy and float(r[2]) == value]
            assert len(group) == 3
            assert len({r[7] for r in group}) == 1  # shared point impact
    return {(r[0], float(r[2])): float(r[7]) for r in rows}


def test_c11_sweep_curves_csv_consistent(tmp_path):
    t0 = time.time()
    beta = _run_sweep(tmp_path, "beta", "brightness_contrast", "beta",
                      [0.0, 15.0, 30.0, 45.0])
    kappa = _run_sweep(tmp_path, "kappa", "dct_artifacts", "kappa",
                       [0.0, 0.25, 0.5, 0.75])
    elapsed = time.time() - t0
    # Whether the robust policy underperforms vanilla on these intrinsic
    # directions is environment dependent; report the curves, assert only
    # the CSV contract above.
    for name, curve in (("beta", beta), ("kappa", kappa)):
        for policy in ("vanilla", "radial"):
            pts = sorted((v, i) for (p, v), i in curve.items()
                         if p == policy)
            rendered = " ".join(f"{v:g}:{i:+.3f}" for v, i in pts)
            print(f"[criterion 11] {name} curve {policy}: {rendered}")
    worse = sum(1 for key in beta if key[0] == "radial"
                and beta[key] > beta[("vanilla", key[1])] + 1e-12)
    _pass(11, f"both sweep CSVs complete and internally consistent "
              f"(2 policies x 4 values x 3 runs each); robust policy "
              f"higher-impact on {worse}/4 brightness points (reported, "
              f"not asserted); {elapsed:.0f}s")
