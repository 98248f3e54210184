#!/usr/bin/env python3
"""What a sample looks like and how it moves through files.

Walks through the synthetic generator, the frame-index <-> fraction mapping
that start/end training targets rely on, and the on-disk formats (sample
directory of manifest.json plus one tensors.f32 blob, dataset directory with
its dataset.json index, predictions JSONL).
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from hvsarn import load_dataset, load_sample, save_sample, synth_sample, write_dataset
from hvsarn.data import frame_pair_to_fractions, segment_to_frame_indices
from hvsarn.localization import write_predictions_jsonl

# %% one sample -----------------------------------------------------------

video, query = synth_sample(seed=7, num_frames=8, num_objects=3, difficulty="separable")

print("video_id     ", video.video_id)
print("frames x objs", (video.num_frames, video.num_objects))
print("features     ", video.object_features.shape, video.object_features.dtype)
print("boxes        ", video.boxes.shape, "(x0, y0, x1, y1) in [0, 1]")
print("semantic     ", video.semantic_embeddings.shape)
print("query tokens ", query.token_embeddings.shape)
print("annotation   ", video.annotation)

# The generator plants a query-correlated signature on in-segment objects.
# Cosine similarity of each frame's mean feature against the in-segment mean
# makes the plant visible without any training:
feats = video.object_features.mean(axis=1)
s, e = segment_to_frame_indices(video.annotation, video.num_frames)
inside = feats[s : e + 1].mean(axis=0)
sims = feats @ inside / (np.linalg.norm(feats, axis=1) * np.linalg.norm(inside))
print("\nframe  in-segment  cosine-vs-inside-mean")
for t in range(video.num_frames):
    marker = "*" if s <= t <= e else " "
    print(f"  {t}      {marker}         {sims[t]:+.3f}")

# %% index <-> fraction mapping --------------------------------------------

# Ground truth is stored as fractions of video length; training targets are
# frame indices. The mapping round-trips exactly, including awkward T.
print("\nfractions", (video.annotation.start, video.annotation.end))
print("indices  ", (s, e))
print("back     ", frame_pair_to_fractions(s, e, video.num_frames))

# %% sample and dataset directories ------------------------------------------

tmp = Path(tempfile.mkdtemp(prefix="hvsarn-demo-"))
save_sample((video, query), tmp / "one")
print("\nsample dir   ", sorted(p.name for p in (tmp / "one").iterdir()))
v2, q2 = load_sample(tmp / "one")
print("round trip bit-exact:",
      np.array_equal(v2.object_features, video.object_features)
      and np.array_equal(q2.token_embeddings, query.token_embeddings))

write_dataset(tmp / "toy", count=5, num_frames=8, num_objects=3, seed=0,
              difficulty="separable")
dataset = load_dataset(tmp / "toy")
print("dataset dir  ", sorted(p.name for p in (tmp / "toy").iterdir())[:4], "...")
print("loaded       ", len(dataset), "samples")

# %% predictions JSONL -------------------------------------------------------

# The exchange format for scored segments: one record per query, segments as
# [start_fraction, end_fraction, score] arrays sorted by score.
records = [{
    "query_id": query.query_id,
    "video_id": video.video_id,
    "segments": [[0.25, 0.75, 0.61], [0.125, 0.75, 0.2]],
}]
write_predictions_jsonl(tmp / "predictions.jsonl", records)
print("\npredictions.jsonl:")
print((tmp / "predictions.jsonl").read_text().strip())
print("\nartifacts under", tmp)
