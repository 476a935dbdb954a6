"""Cross-target micro-batched prediction.

A bursty multi-user load hands the gateway many small
:class:`~repro.serve.PredictRequest`\\ s at once, and most of them resolve to
the *same* model instance: every never-adapted (or evicted) target falls back
to the shard's shared source model, and a hot target's own bursts all hit its
cached adapted model.  Running those forwards one request at a time pays the
Python/numpy per-layer dispatch cost once per request and serializes on the
model's forward lock; this module coalesces them instead.

Coalescing happens in two tiers:

* **Dedup** — requests whose payloads are byte-identical (duplicate-target
  bursts: retries, replica fan-out, dashboard polling) are computed once and
  the result fanned out.  Bit-identical by construction — it *is* the same
  forward — whatever the platform.
* **Tiled stacking** — distinct sub-batch payloads for one model are packed,
  back to back, into fixed-shape tiles of exactly :data:`TILE_ROWS` rows (the
  last tile zero-padded) and each tile runs as one forward.  The fixed shape
  is the whole trick: a BLAS kernel picks its blocking from the gemm shape,
  so forwarding the *same row* in differently-sized batches can drift by an
  ulp — but inside a fixed ``(TILE_ROWS, features)`` forward every output
  row depends only on its own input row, and repacking rows across tiles
  reproduces them bit for bit (pinned by ``tests/serve/test_gateway.py``).
  :func:`run_model_group` is the gateway's only predict executor (``submit``,
  ``submit_many`` and ``submit_async`` all end here, a lone request
  included), so a coalesced burst is **bit-identical to per-request submits
  by construction** — micro-batching only changes how many rows share a
  tile, never the arithmetic of any row.  It has no modes and no knobs.

Payloads at or above their request's ``batch_size`` gain nothing from tiling
(they already amortize dispatch) and run verbatim through
:func:`~repro.nn.trainer.predict_batched`, so for those the gateway's output
is bitwise :meth:`~repro.runtime.AdaptationService.predict`.  Sub-batch
payloads may differ from that request-shaped path by float rounding (the
shape-dependence above, ~1 ulp).  Those request-shaped bits are not a
gateway contract: callers that need them call
:meth:`~repro.runtime.AdaptationService.predict` on the owning shard
(``gateway.service_for(target_id).predict``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..nn.trainer import predict_batched

__all__ = ["TILE_ROWS", "PredictPlan", "run_model_group"]

#: Rows per fixed-shape tile.  Small enough that a lone request padded to one
#: tile costs about as much as its own forward, large enough that a burst of
#: one-row requests collapses into few forwards.
TILE_ROWS = 32


@dataclass
class PredictPlan:
    """One prediction request resolved against its shard's model cache.

    Built by the gateway (which owns target→model resolution); consumed by
    :func:`run_model_group` grouped per ``(model, batch_size)``.
    """

    index: int  # position in the submit_many input order
    target_id: str
    inputs: np.ndarray
    batch_size: int
    fallback: bool  # source model substituted for a missing adapted model
    model: object = None  # resolved model instance the forward must run on
    lock: object = None  # that model's forward lock
    output: np.ndarray | None = None
    coalesced: bool = False  # answered by a shared (deduped/tiled) forward
    error: BaseException | None = None  # forward failure, attributed per plan


def _payload_key(inputs: np.ndarray) -> tuple:
    """Hashable identity of a payload's bytes (dedup key).

    Hashing is ~GB/s while a forward is orders of magnitude slower, so
    digesting every payload costs noise compared to the forwards it saves.
    """
    data = np.ascontiguousarray(inputs)
    digest = hashlib.blake2b(data.tobytes(), digest_size=16).digest()
    return (data.shape, digest)


def run_model_group(
    model, lock, plans: list[PredictPlan]
) -> tuple[list[tuple[str, int]], list[float]]:
    """Execute all plans that resolved to one model instance, coalescing them.

    Fills each plan's ``output`` in place.  The model's forward lock is taken
    once for the whole group (layers cache per-forward state, so a model
    instance must never forward from two threads at once).

    Every gateway prediction, a lone ``submit_async`` included, runs through
    here, so per-request and micro-batched executions are one code path —
    which is what makes their outputs bit-identical rather than merely close.

    Returns the group's coalescing accounting: ``(counter, value)`` pairs
    (dedup savings, solo forwards, tiles, tile rows and zero-pad waste) and
    one occupancy sample per tiled feature shape.  The caller settles them
    with its registry once per burst; a group that raises returns nothing,
    so a failed forward leaves no counts behind.
    """
    tally: list[tuple[str, int]] = []
    occupancies: list[float] = []
    # Tier 1 — dedup: one representative per byte-identical payload.
    unique: dict[tuple, list[PredictPlan]] = {}
    for plan in plans:
        unique.setdefault(_payload_key(plan.inputs), []).append(plan)

    # Tier 2 — tiling: representatives below their batch_size share
    # fixed-shape tiles; bigger payloads run verbatim (their per-request
    # chunking already amortizes dispatch, and staying request-shaped keeps
    # them bitwise equal to AdaptationService.predict).
    solo: list[PredictPlan] = []
    tiled: dict[tuple, list[PredictPlan]] = {}
    for group in unique.values():
        representative = group[0]
        if len(representative.inputs) < representative.batch_size:
            key = representative.inputs.shape[1:]
            tiled.setdefault(key, []).append(representative)
        else:
            solo.append(representative)

    dedup_hits = len(plans) - len(unique)
    if dedup_hits:
        tally.append(("batch.dedup_hits", dedup_hits))
    if solo:
        tally.append(("batch.solo_forwards", len(solo)))

    with lock:
        for plan in solo:
            plan.output = predict_batched(model, plan.inputs, plan.batch_size)
        for feature_shape, members in tiled.items():
            _run_tiled(model, feature_shape, members, tally, occupancies)

    # Fan results out to the deduped duplicates.
    for group in unique.values():
        representative = group[0]
        if len(group) > 1:
            representative.coalesced = True
        for duplicate in group[1:]:
            duplicate.output = representative.output
            duplicate.coalesced = True
    return tally, occupancies


def _run_tiled(
    model,
    feature_shape: tuple,
    members: list[PredictPlan],
    tally: list,
    occupancies: list,
) -> None:
    """Pack payload rows into fixed ``(TILE_ROWS, ...)`` forwards and scatter back.

    Rows are laid out back to back across tiles with no per-payload
    alignment; the final tile is zero-padded up to the fixed shape.  Every
    forward therefore has the exact same shape, which is what pins each
    row's bits independently of how many requests shared the tile.

    Accounting lands in the caller's ``tally``/``occupancies`` lists.
    """
    total_rows = sum(len(plan.inputs) for plan in members)
    n_tiles = -(-total_rows // TILE_ROWS)
    tally.append(("batch.tiles", n_tiles))
    tally.append(("batch.tile_rows", total_rows))
    tally.append(("batch.tile_padding_rows", n_tiles * TILE_ROWS - total_rows))
    occupancies.append(total_rows / (n_tiles * TILE_ROWS))
    stacked = np.zeros((n_tiles * TILE_ROWS,) + feature_shape, dtype=np.float64)
    start = 0
    for plan in members:
        stacked[start : start + len(plan.inputs)] = plan.inputs
        start += len(plan.inputs)
    outputs = [
        model_forward_eval(model, stacked[offset : offset + TILE_ROWS])
        for offset in range(0, len(stacked), TILE_ROWS)
    ]
    flat = np.concatenate(outputs, axis=0)
    shared = len(members) > 1
    start = 0
    for plan in members:
        plan.output = flat[start : start + len(plan.inputs)].copy()
        plan.coalesced = plan.coalesced or shared
        start += len(plan.inputs)


def model_forward_eval(model, inputs: np.ndarray) -> np.ndarray:
    """One deterministic forward in evaluation mode (dropout disabled)."""
    model.eval()
    return model.forward(inputs)
