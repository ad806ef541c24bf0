"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Criteria are property-based and structural: the
worked selector matrices, fused-sequence arithmetic, gradient verification,
baseline equivalence, selector invariants, and the training/ablation smoke
runs, each at its stated tolerance and budget.
"""

import time
import timeit

import numpy as np

from fusevit.cli import RunConfig, run_comparison
from fusevit.data import AugmentConfig, SynthSpec, generate_synth
from fusevit.encoder import AttentionRecord, EncoderTrace, ModelConfig, patchify
from fusevit.gradcheck import END_TO_END_TOL, OP_TOL, run_suite
from fusevit.model import FuseVitModel, fuse
from fusevit.selector import maws, saws, select_per_layer
from fusevit.tensor import Tensor
from fusevit.train import TrainConfig, evaluate, train

GAMMA = np.array([[1.0, 2.0, 3.0, 4.0],
                  [1.0, 2.0, 3.0, 4.0],
                  [1.0, 2.0, 3.0, 4.0],
                  [1.0, 4.0, 1.0, 1.0]])

DIVERGENCE = np.array([[1.0, 2.0, 3.0, 4.0],
                       [9.0, 0.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0, 0.0]])


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")


def independent_softmax(v):
    e = np.exp(np.asarray(v, dtype=np.float64) - np.max(v))
    return e / e.sum()


def test_criterion_gamma_matrix_regression():
    sel_saws = saws(GAMMA, 1)
    sel_maws = maws(GAMMA, 3)
    row = independent_softmax(GAMMA[0])
    col = independent_softmax(GAMMA[:, 0])
    weight_err = max(abs(w - row[i] * col[i])
                     for i, w in zip(sel_maws.indices, sel_maws.weights))
    ok = sel_saws.indices == [3] and weight_err < 1e-7
    report("gamma-matrix regression", ok,
           f"saws(K=1)={sel_saws.indices}, maws weight err={weight_err:.2e}")
    assert sel_saws.indices == [3]
    assert weight_err < 1e-7


def test_criterion_maws_saws_divergence():
    got_saws = saws(DIVERGENCE, 1).indices
    got_maws = maws(DIVERGENCE, 1).indices
    # brute-force oracle for the mutual ranking
    mutual = independent_softmax(DIVERGENCE[0]) * independent_softmax(DIVERGENCE[:, 0])
    oracle = [1 + int(np.argmax(mutual[1:]))]
    per_call = timeit.timeit(
        lambda: (saws(DIVERGENCE, 1), maws(DIVERGENCE, 1)), number=200) / 200
    ok = got_saws == [3] and got_maws == [1] == oracle and per_call < 1e-3
    report("maws/saws divergence", ok,
           f"saws={got_saws}, maws={got_maws}, {per_call * 1e6:.0f}us/call")
    assert got_saws == [3]
    assert got_maws == [1] == oracle
    assert per_call < 1e-3


def _random_trace(rng, layers, n, d=4):
    hidden = [Tensor(rng.standard_normal((n + 1, d)), dtype=np.float64)
              for _ in range(layers)]
    records = [AttentionRecord(layer_index=i + 1,
                               scores=Tensor(rng.standard_normal((n + 1, n + 1)),
                                             dtype=np.float64))
               for i in range(layers)]
    return EncoderTrace(hidden=hidden, attention=records)


def test_criterion_fused_length_law():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(50):
        layers_total = int(rng.integers(2, 7))
        n = int(rng.integers(2, 14))
        k = int(rng.integers(1, n + 1))
        trace = _random_trace(rng, layers_total - 1, n)
        fused = fuse(trace, select_per_layer(trace, k, "maws"))
        ok = ok and fused.tokens.shape[0] == 1 + (layers_total - 1) * k

    # the reference configuration: 12 layers, 12 tokens per layer
    cfg = ModelConfig(image_h=32, image_w=32, channels=1, patch_size=8,
                      embed_dim=8, layers=12, heads=2, mlp_dim=16, k=12,
                      selector="maws", num_classes=3, seed=0)
    model = FuseVitModel.build(cfg)
    result = model.forward(np.zeros((32, 32, 1), dtype=np.float32))
    rows = result.fused.tokens.shape[0]
    ok = ok and rows == 133
    report("fused length law", ok, f"50 random configs plus L=12,K=12 -> {rows}")
    assert ok
    assert rows == 133


def test_criterion_patch_count_reproduction():
    image = Tensor(np.zeros((448, 448, 3), dtype=np.float32))
    n = patchify(image, 16).shape[0]
    cfg_n = ModelConfig(image_h=448, image_w=448, channels=3, patch_size=16,
                        embed_dim=16, layers=2, heads=2, mlp_dim=32, k=12,
                        selector="maws", num_classes=2, seed=0).num_patches
    ok = n == 784 and cfg_n == 784
    report("patch-count reproduction", ok, f"448x448 / P=16 -> {n}")
    assert n == 784
    assert cfg_n == 784


def test_criterion_gradient_suite():
    start = time.perf_counter()
    results = run_suite(seed=0)
    elapsed = time.perf_counter() - start
    op_results = [r for r in results if not r.name.startswith("end_to_end")]
    e2e_results = [r for r in results if r.name.startswith("end_to_end")]
    worst_op = max(r.max_rel_err for r in op_results)
    worst_e2e = max(r.max_rel_err for r in e2e_results)
    ok = (all(r.passed for r in results) and worst_op < OP_TOL
          and worst_e2e < END_TO_END_TOL and elapsed < 120.0)
    report("gradient suite", ok,
           f"ops<{worst_op:.1e}, end-to-end<{worst_e2e:.1e}, {elapsed:.1f}s")
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert worst_op < OP_TOL
    assert worst_e2e < END_TO_END_TOL
    assert elapsed < 120.0


def test_criterion_baseline_equivalence():
    cfg = ModelConfig(image_h=32, image_w=32, channels=1, patch_size=8,
                      embed_dim=16, layers=3, heads=2, mlp_dim=32, k=4,
                      selector="none", num_classes=5, seed=2)
    model = FuseVitModel.build(cfg, dtype=np.float64)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        image = rng.uniform(0.0, 1.0, (32, 32, 1))
        fused_logits = model.forward(image).logits.data
        plain_logits = model.plain_forward(image).data
        worst = max(worst, float(np.abs(fused_logits - plain_logits).max()))
    ok = worst < 1e-5
    report("baseline equivalence", ok, f"max |diff|={worst:.2e} over 20 inputs")
    assert worst < 1e-5


def test_criterion_selector_invariants():
    rng = np.random.default_rng(4)
    perm_ok = 0
    for _ in range(200):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n + 1, n + 1))
        k = int(rng.integers(1, n + 1))
        perm = rng.permutation(np.arange(1, n + 1))
        mapping = np.concatenate(([0], perm))
        permuted = a[np.ix_(mapping, mapping)]
        position_of = {int(tok): j + 1 for j, tok in enumerate(perm)}
        good = True
        for select in (saws, maws):
            base = {position_of[i] for i in select(a, k).indices}
            good = good and base == set(select(permuted, k).indices)
        perm_ok += good

    shift_ok = 0
    for _ in range(200):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n + 1, n + 1))
        k = int(rng.integers(1, n + 1))
        c_row = float(rng.uniform(-30, 30))
        c_col = float(rng.uniform(-30, 30))
        shifted = a.copy()
        shifted[0, :] += c_row
        shifted[:, 0] += c_col
        shifted[0, 0] = a[0, 0] + c_row + c_col
        good = (saws(a, k).indices == saws(shifted, k).indices
                and maws(a, k).indices == maws(shifted, k).indices)
        shift_ok += good

    ok = perm_ok == 200 and shift_ok == 200
    report("selector invariants", ok,
           f"permutation {perm_ok}/200, shift {shift_ok}/200")
    assert perm_ok == 200
    assert shift_ok == 200


SMOKE_MODEL = ModelConfig(image_h=32, image_w=32, channels=1, patch_size=8,
                          embed_dim=32, layers=4, heads=4, mlp_dim=128, k=4,
                          selector="maws", num_classes=5, seed=66)
SMOKE_DATA = SynthSpec(num_classes=5, train_per_class=8, test_per_class=4,
                       image_size=32, signal_patch_count=6, signal_amplitude=1.0,
                       noise_std=0.0, seed=55)
SMOKE_TRAIN = TrainConfig(lr0=5e-4, momentum=0.95, total_steps=500, batch_size=16,
                          seed=77,
                          augment=AugmentConfig(flip=True, crop_size=32, resize_to=32))


def test_criterion_training_smoke():
    dataset = generate_synth(SMOKE_DATA)
    start = time.perf_counter()
    model = FuseVitModel.build(SMOKE_MODEL)
    log = train(model, dataset, SMOKE_TRAIN)
    elapsed = time.perf_counter() - start
    acc = evaluate(model, dataset.test, dataset.num_classes,
                   SMOKE_TRAIN.augment).accuracy

    rerun_model = FuseVitModel.build(SMOKE_MODEL)
    rerun_log = train(rerun_model, dataset, SMOKE_TRAIN)
    identical = log.csv_text() == rerun_log.csv_text()

    ok = acc >= 0.95 and elapsed < 300.0 and identical
    report("training smoke test", ok,
           f"test acc={acc:.3f} in {SMOKE_TRAIN.total_steps} steps / "
           f"{elapsed:.0f}s, rerun CSV identical={identical}")
    assert acc >= 0.95
    assert elapsed < 300.0
    assert identical


def test_criterion_ablation_structure():
    hard = SynthSpec(num_classes=4, train_per_class=4, test_per_class=2,
                     image_size=16, signal_patch_count=3, signal_amplitude=0.3,
                     noise_std=0.15, seed=9)
    dataset = generate_synth(hard)
    cfg = RunConfig(image_size=16, channels=1, patch=8, dim=16, layers=3,
                    heads=2, mlp_dim=32, k=2, lr=5e-4, momentum=0.9,
                    steps=40, batch=4, seed=1)
    first = run_comparison(cfg, dataset)
    second = run_comparison(cfg, dataset)

    variants = [row.variant for row in first.rows]
    structural = (variants == ["none", "saws", "maws"]
                  and all(0.0 <= row.test_acc <= 1.0 for row in first.rows)
                  and all(row.steps == 40 for row in first.rows))
    shared_init = len(set(first.init_losses)) == 1
    deterministic = first.csv_text() == second.csv_text()
    ok = structural and shared_init and deterministic
    accs = {r.variant: round(r.test_acc, 3) for r in first.rows}
    report("ablation-structure reproduction", ok,
           f"rows={accs}, shared init loss={first.init_losses[0]:.4f}, "
           f"deterministic={deterministic}")
    assert structural
    assert shared_init
    assert deterministic
