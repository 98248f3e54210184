"""Acceptance gate: one test per shipping criterion.

Each test prints a single [C#] ... PASS line with its tolerance when it
succeeds (visible under `pytest -s`; the pytest verdict line carries the
same pass/fail signal either way).  The criteria:

  C1  finite-difference gradcheck via the CLI, every tensor < 1e-4, < 2 min
  C2  read / write / both cross-space formulas match straight-line oracles
      on >= 20 seeds at 1e-10 in 64-bit
  C3  invariant suite on 100 seeded instances each: softmax rows on the
      simplex +-1e-6 at every attention site, gate-saturation identity to
      1e-6, permutation equivariance/invariance, zero-step identity
  C4  recall_at exact against brute force on 200 random sets; temporal IoU
      properties exhaustive on a 0.05 endpoint grid
  C5  synth -> train -> eval overfit: R@1,IoU=0.7 >= 0.9 in < 10 min
  C6  full model beats the reasoning-free variant on R@1,IoU=0.5 on a
      held-out separable set in >= 8 of 10 seeded runs
  C7  sample and checkpoint round-trips bit-exact on 100 random instances
"""

import json
import os
import time

import numpy as np

import hvsarn.tensor as tt
from hvsarn.cli import main
from hvsarn.cross_space import cross_attention, cross_space_params, enhance_batch
from hvsarn.data import (
    ModelConfig,
    load_sample,
    save_sample,
    synth_sample,
)
from hvsarn.encoders import self_attention
from hvsarn.evaluation import (
    ablation_config,
    evaluate_predictions,
    recall_at,
    temporal_iou,
)
from hvsarn.graph_memory import (
    graph_memory_params,
    neighbor_attention,
    read_attention,
    read_batch,
    reason_batch,
    write_batch,
)
from hvsarn.hierarchy import fuse_objects, fusion_attention, fusion_params
from hvsarn.model import predict_dataset
from hvsarn.params import init_params
from hvsarn.tensor import Tensor
from hvsarn.training import (
    TrainHyper,
    load_checkpoint,
    save_checkpoint,
    train,
)
from oracles import (
    as_np,
    cross_space_oracle,
    iou_oracle,
    read_oracle,
    recall_oracle,
    write_oracle,
)


def _report(line: str) -> None:
    print(line)


# -- C1 ------------------------------------------------------------------------


def test_c1_gradcheck_command(capsys):
    started = time.time()
    rc = main(["gradcheck"])
    elapsed = time.time() - started
    out = capsys.readouterr().out
    assert rc == 0, out
    worst = 0.0
    tensors = 0
    for line in out.strip().splitlines()[1:-1]:
        name, err, status = line.split()
        assert status == "ok", line
        worst = max(worst, float(err))
        tensors += 1
    assert worst < 1e-4
    assert elapsed < 120.0
    _report(
        f"[C1] gradcheck (T=3 K=3 tokens=3 width=6 one reasoning step): "
        f"worst rel err {worst:.2e} < 1e-4 over {tensors} tensors "
        f"in {elapsed:.1f}s < 120s: PASS"
    )


# -- C2 ------------------------------------------------------------------------


def test_c2_formula_oracles():
    seeds = range(25)
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 6))
        D = int(rng.integers(3, 9))
        params = init_params(graph_memory_params(D), rng, np.float64)
        q = rng.normal(size=D)
        nodes = rng.normal(size=(K, D))

        controller, graph = Tensor(q.reshape(1, 1, D)), Tensor(nodes.reshape(1, K, D))
        attn = read_attention(controller, graph, params)
        q_new = read_batch(controller, graph, params)
        _, ref_q_new, ref_attn = read_oracle(q, nodes, as_np(params)["read"])
        worst = max(worst, np.abs(attn.data[0, 0] - ref_attn).max())
        worst = max(worst, np.abs(q_new.data[0, 0] - ref_q_new).max())

        nodes_new = write_batch(Tensor(ref_q_new.reshape(1, 1, D)), graph, params)
        ref_nodes = write_oracle(ref_q_new, nodes, as_np(params)["write"])
        worst = max(worst, np.abs(nodes_new.data[0] - ref_nodes).max())

        cross = init_params(cross_space_params(D), rng, np.float64)
        visual = rng.normal(size=(K, D))
        semantic = rng.normal(size=(K, D))
        v2s = enhance_batch(Tensor(visual[None]), Tensor(semantic[None]), cross["v2s"])
        s2v = enhance_batch(Tensor(semantic[None]), Tensor(visual[None]), cross["s2v"])
        worst = max(
            worst, np.abs(v2s.data[0] - cross_space_oracle(visual, semantic, as_np(cross["v2s"]))).max()
        )
        worst = max(
            worst, np.abs(s2v.data[0] - cross_space_oracle(semantic, visual, as_np(cross["s2v"]))).max()
        )
    assert worst < 1e-10
    _report(
        f"[C2] read/write/visual-to-semantic/semantic-to-visual vs straight-line "
        f"oracles over {len(list(seeds))} seeds: worst abs diff {worst:.2e} < 1e-10: PASS"
    )


# -- C3 ------------------------------------------------------------------------


def test_c3_invariant_suite():
    simplex_worst = 0.0
    gate_worst = 0.0
    perm_worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        B = int(rng.integers(1, 4))
        K = int(rng.integers(2, 6))
        D = 2 * int(rng.integers(2, 5))
        params = init_params(graph_memory_params(D), rng, np.float64)
        controller = Tensor(rng.normal(size=(B, 1, D)))
        nodes = Tensor(rng.normal(size=(B, K, D)))

        # softmax simplex at every attention site
        read_attn = read_attention(controller, nodes, params)
        simplex_worst = max(simplex_worst, np.abs(read_attn.data.sum(axis=-1) - 1.0).max())
        write_attn = neighbor_attention(nodes, params)
        simplex_worst = max(simplex_worst, np.abs(write_attn.data.sum(axis=-1) - 1.0).max())
        cross = init_params(cross_space_params(D), rng, np.float64)
        rng.normal(size=(B, K, D))  # the row reads no targets; drawn so later draws stay put
        cross_attn = cross_attention(nodes, cross["v2s"])
        simplex_worst = max(simplex_worst, np.abs(cross_attn.data.sum(axis=-1) - 1.0).max())
        fusion = init_params(fusion_params(D), rng, np.float64)
        fusion_attn = fusion_attention(
            Tensor(rng.normal(size=(1, B, K, D))), Tensor(rng.normal(size=(1, 1, D))), fusion
        )
        simplex_worst = max(simplex_worst, np.abs(fusion_attn.data.sum(axis=-1) - 1.0).max())
        # query self-attention: drive the standalone helper directly
        heads = 2
        qkv = {}
        for gate in ("q", "k", "v", "o"):
            qkv[f"w{gate}"] = Tensor(rng.normal(size=(D, D)))
            qkv[f"b{gate}"] = Tensor(np.zeros(D))
        _, self_attn = self_attention(Tensor(rng.normal(size=(K, D))), qkv, heads)
        simplex_worst = max(simplex_worst, np.abs(self_attn.data.sum(axis=-1) - 1.0).max())

        # gate saturation: +20 bias keeps state identical to 1e-6
        saturated = init_params(graph_memory_params(D), rng, np.float64)
        saturated["read"]["b"].data[D:] = 20.0  # the gate half of [candidate | gate]
        saturated["write"]["b"].data[D:] = 20.0
        q_keep = read_batch(controller, nodes, saturated)
        gate_worst = max(gate_worst, np.abs(q_keep.data - controller.data).max())
        nodes_keep = write_batch(q_keep, nodes, saturated)
        gate_worst = max(gate_worst, np.abs(nodes_keep.data - nodes.data).max())

        # permutation: reasoning is node-equivariant / controller-invariant,
        # object fusion is permutation-invariant
        perm = rng.permutation(K)
        ctrl_a, nodes_a = reason_batch(controller, nodes, params, 2)
        ctrl_b, nodes_b = reason_batch(controller, Tensor(nodes.data[:, perm]), params, 2)
        perm_worst = max(perm_worst, np.abs(nodes_a.data[:, perm] - nodes_b.data).max())
        perm_worst = max(perm_worst, np.abs(ctrl_a.data - ctrl_b.data).max())
        # one sample whose B frames hold K objects each
        sentence = Tensor(rng.normal(size=(1, 1, D)))
        semantic = Tensor(rng.normal(size=(1, B, K, D)))
        fused_a = fuse_objects(Tensor(nodes.data[None]), semantic, sentence, fusion)
        fused_b = fuse_objects(
            Tensor(nodes.data[None, :, perm]), Tensor(semantic.data[:, :, perm]), sentence, fusion
        )
        perm_worst = max(perm_worst, np.abs(fused_a.visual.data - fused_b.visual.data).max())
        perm_worst = max(perm_worst, np.abs(fused_a.semantic.data - fused_b.semantic.data).max())

        # zero reasoning steps is the identity
        ctrl_id, nodes_id = reason_batch(controller, nodes, params, 0)
        np.testing.assert_array_equal(ctrl_id.data, controller.data)
        np.testing.assert_array_equal(nodes_id.data, nodes.data)

    assert simplex_worst < 1e-6
    assert gate_worst < 1e-6
    assert perm_worst < 1e-6
    _report(
        "[C3] invariants on 100 seeded instances each: "
        f"attention simplex dev {simplex_worst:.2e} < 1e-6, "
        f"gate-saturation identity dev {gate_worst:.2e} < 1e-6, "
        f"permutation dev {perm_worst:.2e} < 1e-6, zero-step identity exact: PASS"
    )


# -- C4 ------------------------------------------------------------------------


def test_c4_metric_oracles():
    # recall against brute force, exact equality, 200 random sets
    for seed in range(200):
        rng = np.random.default_rng(seed)
        samples = int(rng.integers(1, 10))
        predictions, truths = [], []
        for _ in range(samples):
            segs = []
            for _ in range(int(rng.integers(1, 8))):
                lo = float(rng.uniform(0.0, 0.9))
                segs.append((lo, float(rng.uniform(lo + 0.01, 1.0))))
            predictions.append(segs)
            lo = float(rng.uniform(0.0, 0.9))
            truths.append((lo, float(rng.uniform(lo + 0.01, 1.0))))
        n = int(rng.integers(1, 6))
        m = float(rng.choice([0.3, 0.5, 0.7]))
        assert recall_at(predictions, truths, n, m) == recall_oracle(predictions, truths, n, m)

    # IoU properties exhaustively on the 0.05 endpoint grid
    ticks = [round(0.05 * i, 2) for i in range(21)]
    intervals = [(a, b) for a in ticks for b in ticks if b > a]
    checked = 0
    for a in intervals:
        np.testing.assert_allclose(temporal_iou(a, a), 1.0, atol=1e-12)
        for b in intervals:
            v = temporal_iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == temporal_iou(b, a)
            np.testing.assert_allclose(v, iou_oracle(a, b), atol=1e-12)
            checked += 1
    _report(
        f"[C4] recall_at == brute force on 200 random sets (exact); "
        f"IoU symmetry/bounds/identity on {checked} grid pairs (tol 1e-12): PASS"
    )


# -- C5 ------------------------------------------------------------------------


def test_c5_overfit_run(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HVSARN_PRECISION", raising=False)
    started = time.time()
    data = tmp_path / "data"
    run = tmp_path / "run"
    scored = tmp_path / "eval"
    assert (
        main(
            [
                "synth",
                "--out-dir", str(data),
                "--count", "50",
                "--frames", "8",
                "--objects", "4",
                "--seed", "0",
                "--difficulty", "separable",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--data-dir", str(data),
                "--out-dir", str(run),
                "--lr", "1e-3",
                "--steps", "300",
                "--batch-size", "8",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "eval",
                "--checkpoint", str(run / "checkpoint"),
                "--data-dir", str(data),
                "--out-dir", str(scored),
                "--metrics", "1:0.7",
            ]
        )
        == 0
    )
    capsys.readouterr()
    elapsed = time.time() - started
    metrics = json.loads((scored / "metrics.json").read_text())
    recall = metrics["metrics"]["R@1,IoU=0.7"]
    assert recall >= 0.9
    assert elapsed < 600.0
    _report(
        f"[C5] overfit 50 separable samples (300 steps, lr 1e-3): "
        f"R@1,IoU=0.7 = {recall:.3f} >= 0.9 in {elapsed:.0f}s < 600s: PASS"
    )


# -- C6 ------------------------------------------------------------------------


def test_c6_ablation_direction():
    wins = 0
    scores = []
    for seed in range(10):
        train_set = [synth_sample(seed * 1000 + i, 8, 3, "separable") for i in range(24)]
        eval_set = [synth_sample(seed * 1000 + 500 + i, 8, 3, "separable") for i in range(48)]
        truths = [video.annotation for video, _ in eval_set]
        recall = {}
        for name in ("full", "no_reasoning"):
            config = ablation_config(
                ModelConfig(hidden_size=16, reasoning_steps=1, seed=seed), name
            )
            state, _ = train(train_set, config, TrainHyper(1e-3, 50, 8), dtype=np.float32)
            predictions = predict_dataset(state.model, eval_set)
            recall[name] = evaluate_predictions(predictions, truths, [(1, 0.5)]).recall(1, 0.5)
        scores.append((recall["full"], recall["no_reasoning"]))
        wins += recall["full"] > recall["no_reasoning"]
    assert wins >= 8, scores
    _report(
        f"[C6] full model beats reasoning-free variant on held-out R@1,IoU=0.5 "
        f"in {wins}/10 seeded runs (needs >= 8): PASS"
    )


# -- C7 ------------------------------------------------------------------------


def test_c7_serialization_round_trips(tmp_path):
    # 100 random samples through save/load, bit for bit
    for i in range(100):
        rng = np.random.default_rng(i)
        T = int(rng.integers(3, 20))
        K = int(rng.integers(1, 6))
        difficulty = ("separable", "noisy")[i % 2]
        video, query = synth_sample(i, T, K, difficulty)
        if i % 5 == 0:
            video = video.__class__(
                video_id=video.video_id,
                object_features=video.object_features,
                boxes=video.boxes,
                semantic_embeddings=video.semantic_embeddings,
                annotation=None,
            )
        path = tmp_path / f"sample_{i:03d}.json"
        save_sample((video, query), path)
        back_video, back_query = load_sample(path)
        assert back_video.video_id == video.video_id
        assert back_query.query_id == query.query_id
        np.testing.assert_array_equal(back_video.object_features, video.object_features)
        np.testing.assert_array_equal(back_video.boxes, video.boxes)
        np.testing.assert_array_equal(back_video.semantic_embeddings, video.semantic_embeddings)
        np.testing.assert_array_equal(back_query.token_embeddings, query.token_embeddings)
        assert back_video.object_features.dtype == video.object_features.dtype
        if video.annotation is None:
            assert back_video.annotation is None
        else:
            assert back_video.annotation == video.annotation

    # checkpoint round trip in both precisions, bit for bit
    dataset = [synth_sample(s, 4, 2, "separable") for s in range(3)]
    for dtype, tag in ((np.float32, "f32"), (np.float64, "f64")):
        config = ModelConfig(hidden_size=8, reasoning_steps=1, seed=2)
        state, _ = train(dataset, config, TrainHyper(1e-3, 3, 2), dtype=dtype)
        first = tmp_path / f"ckpt_{tag}_a"
        second = tmp_path / f"ckpt_{tag}_b"
        save_checkpoint(str(first), state)
        loaded = load_checkpoint(str(first))
        for name, tensor in state.model.named_parameters().items():
            np.testing.assert_array_equal(tensor.data, loaded.model.named_parameters()[name].data)
        for name, arr in state.moments_m.items():
            np.testing.assert_array_equal(arr, loaded.moments_m[name])
        for name, arr in state.moments_v.items():
            np.testing.assert_array_equal(arr, loaded.moments_v[name])
        save_checkpoint(str(second), loaded)
        for filename in sorted(os.listdir(first)):
            a = (first / filename).read_bytes()
            b = (second / filename).read_bytes()
            assert a == b, filename
    _report(
        "[C7] 100 sample round-trips and float32/float64 checkpoint round-trips "
        "bit-exact (exact equality, no tolerance): PASS"
    )
