"""Vectorized columnar coverage-matching kernel (paper §V, array form).

:func:`match_columns` is the hot-path twin of the scan matchers in
:mod:`repro.instrument.matching`: it consumes the columnar probe
store's per-field arrays directly — tag stream plus seven unified
``int64`` payload columns over a string dictionary — and never
materialises per-event tuples or Python dicts keyed per event.  The
three scan joins become three array passes:

* **var last-def join** — factorize ``(model, var)`` into one dense
  integer key, stable-sort the var events by key (stream order is
  preserved within a key), and compute the running last-def position
  with a grouped cummax: ``maximum.accumulate`` over def positions,
  validated against each group's start offset.  A use pairs with the
  def the cummax points at — exactly the running ``last_def`` dict of
  the scan matcher, for every group at once.

* **port-read floor join** — deduplicate writes to last-by-sequence
  per ``(signal, token)`` (stable sort + last-of-run selection), then
  resolve every read's sample-and-hold floor ("greatest written token
  ``<= token`` on the same signal") with a single
  ``np.searchsorted(side='right') - 1`` over the combined
  ``signal * radix + token`` key space.  Testbench writes pair the
  read with the reader's placeholder definition at its model start
  line; negative (initial/delay) tokens pair with nothing.

* **use-without-def diagnostics** — undriven reads reduce to first
  occurrence per ``reader_model.port`` description, in stream order,
  with the same :class:`UseWithoutDefWarning` text as the scan path.

The emitted :class:`~repro.instrument.matching.MatchResult` contents
(pair set, diagnostic order, warning count) are byte-identical to the
scan matchers by construction and verified by a Hypothesis equivalence
property.  The kernel requires numpy (an optional dependency);
:func:`~repro.instrument.matching.match_events` runs it only on a
columnar store when :data:`HAVE_NUMPY` holds, and takes the streaming
scan otherwise.

Memory note: the vector path materialises the full column set (~9
bytes/row plus masks), trading the store's O(1) streaming footprint
for array passes.  At a million events that is tens of megabytes —
fine on analysis hosts; without numpy the streaming scan keeps the
O(1) footprint.  In-memory buffers never take this path: columnizing
them would cost an encode pass that the single-pass scan beats.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.store.columns import HAVE_NUMPY, TAG_DEF, TAG_PR, TAG_PW, _np as np
from .probes import UseWithoutDefWarning, WriterKind

#: ``(tags, payload_columns, strings)`` — the array triple the kernel
#: consumes (:meth:`repro.obs.store.ColumnarProbeStore.to_columns`).
ColumnSet = Tuple[Any, Tuple, Sequence[str]]


def match_columns(
    columns: ColumnSet,
    model_start_lines: Dict[str, int],
    result: Any,
    warn: bool,
) -> int:
    """Join a columnar event stream into ``result``; returns row count.

    ``result`` is a :class:`~repro.instrument.matching.MatchResult`;
    its ``pairs`` set and ``use_without_def`` list receive exactly what
    the scan matchers would produce for the same stream.
    """
    tags, cols, strings = columns
    tags = np.asarray(tags, dtype=np.uint8)
    n = int(tags.shape[0])
    if n == 0:
        return 0
    a, b, c, d, e, f, g = (np.asarray(col, dtype=np.int64) for col in cols)
    # String ids are < len(strings); one radix for all combined keys.
    radix_s = len(strings) + 1
    pair_blocks: List[Any] = []

    var_mask = tags <= TAG_DEF
    if var_mask.any():
        pair_blocks += _join_var_events(
            a[var_mask], b[var_mask], c[var_mask], tags[var_mask] == TAG_DEF,
            radix_s,
        )

    pr_mask = tags == TAG_PR
    if pr_mask.any():
        _collect_use_without_def(
            a[pr_mask], c[pr_mask], d[pr_mask], g[pr_mask],
            radix_s, strings, result, warn,
        )
        pw_mask = tags == TAG_PW
        if pw_mask.any():
            pair_blocks += _join_port_events(
                (a[pw_mask], b[pw_mask], c[pw_mask], d[pw_mask],
                 e[pw_mask], f[pw_mask]),
                (a[pr_mask], b[pr_mask], c[pr_mask], d[pr_mask],
                 e[pr_mask], f[pr_mask], g[pr_mask]),
                radix_s, strings, model_start_lines,
            )

    if pair_blocks:
        rows = (
            pair_blocks[0] if len(pair_blocks) == 1
            else np.concatenate(pair_blocks, axis=0)
        )
        add_pair = result.pairs.add
        # Dedup in id space (interning is bijective, so id-distinct ==
        # string-distinct) before decoding the survivors to tuples.
        for var, dm, dl, um, ul in _unique_rows(rows).tolist():
            add_pair((strings[var], strings[dm], dl, strings[um], ul))
    return n


def _unique_rows(rows):
    """Distinct rows of an int64 ``(n, k)`` matrix (order arbitrary).

    ``np.unique(rows, axis=0)`` sorts a structured void view — an
    order of magnitude slower than sorting scalars.  The row values
    here are tiny (string ids and source lines), so a mixed-radix
    packing into one int64 key per row is exact whenever the product
    of per-column ranges fits 63 bits — always, in practice; the void
    path stays as the overflow fallback.
    """
    lows = rows.min(axis=0)
    shifted = rows - lows
    radices = [int(r) + 1 for r in shifted.max(axis=0).tolist()]
    span = 1
    for radix in radices:
        span *= radix
    if span >= 2 ** 63:  # pragma: no cover - degenerate line numbers
        return np.unique(rows, axis=0)
    key = shifted[:, 0]
    for j in range(1, shifted.shape[1]):
        key = key * radices[j] + shifted[:, j]
    _, first = np.unique(key, return_index=True)
    return rows[first]


def _join_var_events(v_var, v_model, v_line, v_isdef, radix_s) -> List[Any]:
    """Grouped last-def join over the var-event subset.

    One stable sort brings each ``(model, var)`` group together in
    stream order; a cummax over def positions then replays the scan
    matcher's running ``last_def`` dict for every group simultaneously.
    """
    key = v_model * radix_s + v_var
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    isdef_s = v_isdef[order]
    m = key_s.shape[0]
    pos = np.arange(m, dtype=np.int64)
    last_def = np.maximum.accumulate(np.where(isdef_s, pos, -1))
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.not_equal(key_s[1:], key_s[:-1], out=boundary[1:])
    group_start = np.maximum.accumulate(np.where(boundary, pos, 0))
    # A use pairs iff its group holds a def at or before it in stream
    # order — i.e. the global cummax has not leaked from a prior group.
    use_ok = ~isdef_s
    np.logical_and(use_ok, last_def >= group_start, out=use_ok)
    if not use_ok.any():
        return []
    var_s = v_var[order]
    model_s = v_model[order]
    line_s = v_line[order]
    def_line = line_s[last_def[use_ok]]
    model_ok = model_s[use_ok]
    return [np.stack(
        [var_s[use_ok], model_ok, def_line, model_ok, line_s[use_ok]],
        axis=1,
    )]


def _join_port_events(writes, reads, radix_s, strings, model_start_lines):
    """Floor-join port reads against last-by-sequence writes."""
    w_sig, w_tok, w_var, w_model, w_line, w_kind = writes
    r_sig, r_tok, r_port, r_model, r_amod, r_aline, r_undriven = reads
    # Initial/delay tokens (negative index) and undriven reads pair
    # with nothing; drop them before the join.
    valid = (r_undriven == 0) & (r_tok >= 0)
    if not valid.any():
        return []
    r_sig = r_sig[valid]
    r_tok = r_tok[valid]
    r_port = r_port[valid]
    r_model = r_model[valid]
    r_amod = r_amod[valid]
    r_aline = r_aline[valid]

    # Combined (signal, token) key space shared by writes and reads.
    t_min = min(int(w_tok.min()), 0)
    radix_t = max(int(w_tok.max()), int(r_tok.max())) - t_min + 1
    w_key = w_sig * radix_t + (w_tok - t_min)
    order = np.argsort(w_key, kind="stable")
    w_key_s = w_key[order]
    m = w_key_s.shape[0]
    # Last-of-run in stable order == last write by sequence per token —
    # the scan matcher's ``sig_map[token] = ev`` overwrite semantics.
    last_of_run = np.empty(m, dtype=bool)
    last_of_run[-1] = True
    np.not_equal(w_key_s[1:], w_key_s[:-1], out=last_of_run[:-1])
    w_rows = order[last_of_run]
    u_key = w_key_s[last_of_run]
    u_sig = w_sig[w_rows]

    # Sample-and-hold floor: greatest written token <= read token,
    # valid only when the floor landed on the same signal.
    r_key = r_sig * radix_t + (r_tok - t_min)
    floor = np.searchsorted(u_key, r_key, side="right") - 1
    ok = floor >= 0
    floor_safe = np.where(ok, floor, 0)
    np.logical_and(ok, u_sig[floor_safe] == r_sig, out=ok)
    if not ok.any():
        return []
    wi = w_rows[floor_safe[ok]]
    kind = w_kind[wi]

    try:
        tb_id = strings.index(WriterKind.TESTBENCH.value)
    except ValueError:
        tb_id = -1
    testbench = kind == tb_id
    blocks: List[Any] = []
    model_hit = ~testbench
    if model_hit.any():
        wm = wi[model_hit]
        blocks.append(np.stack(
            [w_var[wm], w_model[wm], w_line[wm],
             r_amod[ok][model_hit], r_aline[ok][model_hit]],
            axis=1,
        ))
    if testbench.any():
        # Testbench writes pair with the reader's placeholder def at
        # its model start line; readers without a start line pair with
        # nothing (uninstrumented readers).
        start_by_id = np.full(len(strings), -1, dtype=np.int64)
        for name, line in model_start_lines.items():
            sid = _string_id(strings, name)
            if sid is not None:
                start_by_id[sid] = line
        t_model = r_model[ok][testbench]
        t_start = start_by_id[t_model]
        has_start = t_start >= 0
        if has_start.any():
            blocks.append(np.stack(
                [r_port[ok][testbench][has_start], t_model[has_start],
                 t_start[has_start], r_amod[ok][testbench][has_start],
                 r_aline[ok][testbench][has_start]],
                axis=1,
            ))
    return blocks


def _collect_use_without_def(
    r_sig, r_port, r_model, r_undriven, radix_s, strings, result, warn
) -> None:
    """First-occurrence undriven-read diagnostics, in stream order."""
    und = r_undriven != 0
    if not und.any():
        return
    u_model = r_model[und]
    u_port = r_port[und]
    u_sig = r_sig[und]
    desc_key = u_model * radix_s + u_port
    _, first = np.unique(desc_key, return_index=True)
    for i in np.sort(first).tolist():
        desc = f"{strings[u_model[i]]}.{strings[u_port[i]]}"
        result.use_without_def.append(desc)
        if warn:
            warnings.warn(
                f"use of port {desc} without any definition "
                f"(signal {strings[u_sig[i]]!r} has no driver): undefined "
                f"behaviour per the SystemC-AMS standard",
                UseWithoutDefWarning,
                stacklevel=2,
            )


def _string_id(strings: Sequence[str], name: str) -> Optional[int]:
    """Id of ``name`` in the chunk string table (linear: tables are
    tiny — one entry per distinct model/var/signal name)."""
    try:
        return strings.index(name)  # type: ignore[union-attr]
    except ValueError:
        return None
