"""Acceptance suite: one check per criterion, each printing a PASS/FAIL
line with its measured numbers.

Run with `pytest tests/test_acceptance.py -v -s`.

Check 7 encodes the expected end-to-end component trend: the full
pipeline should beat the all-off baseline by two OA points, and the
gradient-surgery + logit-normalization pair should not trail the
baseline. At this scale those margins are not met, and why is an open
question: the README's check-7 paragraph and ROADMAP item 6 give the
measurements so far and the logging that would settle it (mean OA: off
80.32, gradvac+logitnorm 79.52, full 81.08). The check is kept strict
and currently fails rather than being loosened to fit.
"""

import dataclasses
import math
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

from xscene.agreement import ema_update, gradvac_update, logitnorm, logitnorm_ce
from xscene.data import generate_pair, load_csv, sample_k_per_class, save_csv
from xscene.disagreement import (dcor_penalty, distance_correlation, log_softmax,
                                 smoothed_distances, symmetric_kl)
from xscene.harness import TrainConfig, train, write_log
from xscene.metrics import (ConfusionMatrix, average_accuracy, cohen_kappa,
                            overall_accuracy)
from xscene.model import ModelBundle, agreement_backward
from xscene.nn import softmax_ce


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    return ok


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_01_gradvac_alignment_guarantee():
    # graded with the test's own cosine, not the call's phi_post
    rng = np.random.default_rng(9001)
    start = time.perf_counter()
    worst = 0.0
    fired = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 65))
        g_s = rng.normal(size=dim)
        g_t = rng.normal(size=dim)
        phi = cosine(g_s, g_t)
        alpha = float(rng.uniform(phi + 1e-6, 1.0 - 1e-6))
        res = gradvac_update(g_s, g_t, alpha, True)
        fired += res.gradvac_applied
        worst = max(worst, abs(cosine(res.g, g_t) - alpha))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0 and fired == 1000
    assert report(1, "gradvac alignment", ok,
                  f"worst |cos-alpha|={worst:.2e}, fired {fired}/1000, "
                  f"{elapsed:.2f}s")


def test_02_logitnorm_contract():
    rng = np.random.default_rng(9002)
    tau = 2.0
    worst_norm = 0.0
    argmax_ok = True
    for _ in range(1000):
        c = int(rng.integers(2, 11))
        z = rng.normal(size=c) * float(rng.uniform(0.1, 20.0))
        zh = logitnorm(z, tau)
        worst_norm = max(worst_norm, abs(np.linalg.norm(zh) - 1.0 / tau))
        argmax_ok = argmax_ok and (np.argmax(zh) == np.argmax(z))
    worst_loss = 0.0
    for _ in range(200):
        n, c = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        z = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        scale = float(rng.uniform(0.01, 100.0))
        base = logitnorm_ce(z, labels, tau)[0]
        scaled = logitnorm_ce(scale * z, labels, tau)[0]
        worst_loss = max(worst_loss, abs(scaled - base))
    ok = worst_norm <= 1e-12 and argmax_ok and worst_loss <= 1e-10
    assert report(2, "logitnorm contract", ok,
                  f"norm err={worst_norm:.2e}, loss err={worst_loss:.2e}")


def _fd_vector(fn, x, h=1e-5):
    flat = x.ravel()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += h
        down[i] -= h
        out[i] = (fn(up.reshape(x.shape)) - fn(down.reshape(x.shape))) / (2 * h)
    return out.reshape(x.shape)


def test_03_gradient_oracles():
    rng = np.random.default_rng(9003)
    start = time.perf_counter()

    tau = 2.0
    for _ in range(50):
        n, c = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        z = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        grad = logitnorm_ce(z, labels, tau)[1]
        fd = _fd_vector(lambda v: logitnorm_ce(v, labels, tau)[0], z)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)

    for _ in range(50):
        n, d = int(rng.integers(3, 9)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d))
        shared_dist, rows = smoothed_distances(x), np.arange(n)
        _, gy = dcor_penalty(shared_dist, rows, y)
        fd_y = _fd_vector(lambda v: dcor_penalty(shared_dist, rows, v)[0], y)
        np.testing.assert_allclose(gy, fd_y, rtol=1e-4, atol=1e-7)

    for _ in range(50):
        n, c = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        temp = float(rng.choice([1.0, 2.0, 0.05]))
        s = rng.normal(size=(n, c))
        t = log_softmax(rng.normal(size=(n, c)), temp)
        _, grad = symmetric_kl(s, t, temp)
        fd = _fd_vector(lambda v: symmetric_kl(v, t, temp)[0], s)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    done = 0
    while done < 50:
        bundle = ModelBundle.build(
            bands_source=int(rng.integers(3, 7)),
            bands_target=int(rng.integers(3, 7)),
            classes_source=int(rng.integers(2, 4)),
            classes_target=int(rng.integers(2, 4)),
            feat_dim=3, hidden_dim=4, enc_dim=3, rng=rng)
        n_s, n_t = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        xs = rng.normal(size=(n_s, bundle.source_extractor.dims[0]))
        ys = rng.integers(0, bundle.source_head.dims[-1], size=n_s)
        xt = rng.normal(size=(n_t, bundle.target_extractor.dims[0]))
        yt = rng.integers(0, bundle.target_head.dims[-1], size=n_t)
        # central differences are only meaningful away from relu kinks:
        # redraw when an encoder pre-activation sits within the probe step
        margin = 1e-3
        kink = False
        for x in (bundle.source_extractor.predict(xs),
                  bundle.target_extractor.predict(xt)):
            _, cache = bundle.shared_encoder.forward(x)
            if min(np.abs(z).min() for _, z in cache) < margin:
                kink = True
        if kink:
            continue
        done += 1
        res = agreement_backward(bundle, (xs, ys), (xt, yt))
        g_s, g_t = res.g_s, res.g_t
        flat = bundle.shared_encoder.values.copy()

        def loss_through(vec, extractor, head, x, y):
            bundle.shared_encoder.values[:] = vec
            z = head.predict(bundle.shared_encoder.predict(extractor.predict(x)))
            return softmax_ce(z, y)[0]

        for grad, extractor, head, x, y in (
                (g_s, bundle.source_extractor, bundle.source_head, xs, ys),
                (g_t, bundle.target_extractor, bundle.target_head, xt, yt)):
            fd = _fd_vector(lambda v: loss_through(v, extractor, head, x, y), flat)
            bundle.shared_encoder.values[:] = flat
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)

    elapsed = time.perf_counter() - start
    assert report(3, "gradient oracles", elapsed < 30.0, f"{elapsed:.1f}s")


def naive_dcor(x, y):
    n = len(x)

    def dmat(rows):
        return [[math.sqrt(sum((a - b) ** 2 for a, b in zip(rows[i], rows[j])))
                 for j in range(n)] for i in range(n)]

    def center(d):
        row = [sum(r) / n for r in d]
        col = [sum(d[i][j] for i in range(n)) / n for j in range(n)]
        grand = sum(row) / n
        return [[d[i][j] - row[i] - col[j] + grand for j in range(n)]
                for i in range(n)]

    a = center(dmat([list(r) for r in x]))
    b = center(dmat([list(r) for r in y]))
    vxy = sum(a[i][j] * b[i][j] for i in range(n) for j in range(n)) / (n * n)
    vxx = sum(a[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    vyy = sum(b[i][j] ** 2 for i in range(n) for j in range(n)) / (n * n)
    if vxx < 1e-15 or vyy < 1e-15:
        return 0.0
    return math.sqrt(max(vxy / math.sqrt(vxx * vyy), 0.0))


def test_04_dcor_oracle_equivalence():
    rng = np.random.default_rng(9004)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        x = rng.normal(size=(n, int(rng.integers(1, 5))))
        y = rng.normal(size=(n, int(rng.integers(1, 5))))
        worst = max(worst, abs(distance_correlation(x, y) - naive_dcor(x, y)))
    affine_worst = 0.0
    for _ in range(50):
        x = rng.normal(size=(int(rng.integers(3, 12)), int(rng.integers(1, 4))))
        a = float(rng.choice([-3.0, -0.5, 0.7, 2.0]))
        b = float(rng.normal())
        affine_worst = max(affine_worst,
                           abs(distance_correlation(x, a * x + b) - 1.0))
    indep = []
    for seed in range(20):
        r = np.random.default_rng(5000 + seed)
        indep.append(distance_correlation(r.standard_normal((256, 1)),
                                          r.standard_normal((256, 1))))
    mean_indep = float(np.mean(indep))
    ok = worst <= 1e-10 and affine_worst <= 1e-9 and mean_indep < 0.15
    assert report(4, "dcor oracle equivalence", ok,
                  f"oracle gap={worst:.2e}, affine gap={affine_worst:.2e}, "
                  f"indep mean={mean_indep:.3f}")


def test_05_metric_fixtures():
    cm, chance = ConfusionMatrix(2), ConfusionMatrix(2)
    cm.counts[:] = [[5, 5], [0, 10]]
    chance.counts[:] = [[25, 25], [25, 25]]
    ok = (overall_accuracy(cm) == 0.75
          and average_accuracy(cm) == 0.75
          and cohen_kappa(cm) == 0.5
          and cohen_kappa(chance) == 0.0)
    assert report(5, "metric fixtures", ok)


def test_06_ema_recursion():
    rng = np.random.default_rng(9006)
    beta = 0.1
    phis = rng.uniform(-1.0, 1.0, size=10)
    alpha = 0.0
    trajectory = []
    for phi in phis:
        alpha = ema_update(alpha, phi, beta)
        trajectory.append(alpha)
    worst = 0.0
    for t in range(1, 11):
        closed = sum(beta * (1 - beta) ** (t - 1 - k) * phis[k]
                     for k in range(t))
        worst = max(worst, abs(trajectory[t - 1] - closed))
    assert report(6, "ema recursion", worst <= 1e-12, f"err={worst:.2e}")


def _train_oa(cfg):
    return train(cfg).oa


def _ladder_mean(pool, toggles, seeds):
    cfgs = [TrainConfig(seed=seed, **toggles) for seed in seeds]
    return float(np.mean(list(pool.map(_train_oa, cfgs))))


def test_07_end_to_end_trend():
    seeds = range(10)
    start = time.perf_counter()
    # spawned workers: forking a process whose OpenBLAS has started is unsafe
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        off = _ladder_mean(pool, {}, seeds)
        agree = _ladder_mean(pool, dict(use_gradvac=True, use_logitnorm=True),
                             seeds)
        full = _ladder_mean(pool, dict(use_gradvac=True, use_logitnorm=True,
                                       use_ensemble=True, use_dir=True), seeds)
    elapsed = time.perf_counter() - start
    ok = (full >= off + 2.0) and (agree >= off) and elapsed < 300.0
    report(7, "end-to-end trend", ok,
           f"off={off:.2f}, gradvac+logitnorm={agree:.2f}, full={full:.2f}, "
           f"{elapsed:.0f}s")
    assert full >= off + 2.0, (
        f"full pipeline OA {full:.2f} must beat the plain baseline "
        f"{off:.2f} by 2 points")
    assert agree >= off, (
        f"gradvac+logitnorm OA {agree:.2f} must not trail the plain "
        f"baseline {off:.2f}")
    assert elapsed < 300.0


def test_08_surgery_diagnostics():
    rep = train(TrainConfig(seed=0, use_gradvac=True))
    agree_steps = [s for s in rep.steps if s["phase"] == "agree"]
    raw = float(np.mean([s["phi_raw"] for s in agree_steps]))
    post = float(np.mean([s["phi_post"] for s in agree_steps]))
    fired = sum(1 for s in agree_steps if s["gradvac_applied"])
    ok = post > raw and fired > 0
    assert report(8, "surgery diagnostics", ok,
                  f"mean raw={raw:+.4f}, mean post={post:+.4f}, fired={fired}")


def test_09_determinism_and_io(tmp_path):
    cfg = TrainConfig(seed=4, epochs_agree=3, epochs_disagree=2,
                      epochs_ensemble=2, use_gradvac=True, use_logitnorm=True,
                      use_ensemble=True, use_dir=True)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_log(p1, train(cfg))
    write_log(p2, train(dataclasses.replace(cfg)))
    logs_identical = p1.read_bytes() == p2.read_bytes()

    _, target = generate_pair(cfg.synth)
    train_split, _ = sample_k_per_class(target, 10, seed=3)
    csv_path = tmp_path / "scene.csv"
    save_csv(train_split, csv_path)
    loaded = load_csv(csv_path)
    csv_exact = (np.array_equal(loaded.spectra, train_split.spectra)
                 and np.array_equal(loaded.labels, train_split.labels)
                 and loaded.name == train_split.name)
    ok = logs_identical and csv_exact
    assert report(9, "determinism and io", ok,
                  f"logs identical={logs_identical}, csv exact={csv_exact}")
