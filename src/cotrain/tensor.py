"""Dense float tensors with reverse-mode automatic differentiation.

The graph is taped implicitly: every operation gives its output a node that
holds its operands' nodes and a backward rule.  ``Tensor.backward`` runs a
single reverse topological sweep, accumulates gradients into every tensor that
requires them, and then retires the tape, so each training step builds a fresh
graph.  There is no higher-order differentiation.

Data lives in row-major numpy arrays, float32 by default; gradient checks use
float64 throughout.

What a node costs.  Besides its numpy calls, every node pays a fixed Python
cost: the op's wrapper, the output tensor and its node, and its turn in the
topological sort and the sweep.  The benchmark's small workloads are
dispatch-bound (299 nodes a step on default_full, about 480 on
many_heads_full, most on arrays of a few thousand elements), so that cost is
kept low.  Op outputs are built
without ``Tensor.__init__``'s coercion; the sort marks nodes with a per-sweep
number instead of keying a dict by ``id()`` and never visits leaves;
reductions call ``np.add.reduce`` and ``np.maximum.reduce`` rather than the
Python-level ``ndarray.sum``, ``max`` and ``mean`` wrappers; ``transpose``
inverts its permutation in Python; and the binary ops and matmul read the
operands' arrays directly when both are tensors.  On a 2-core Xeon VM (numpy
2.4.6), a reshape node took about 1 us forward and 1 us more in the sweep,
and a transpose 2.3 us forward, where ``np.argsort`` had made it 5.2 us.

How long a node lives.  Each taped op output gets a small graph node
(``_Node``): its operands' nodes, its backward rule, its gradient, its dtype
and the sweep's marks.  Consumers reference that node, never the output
tensor, and each rule captures only the arrays it reads: shapes alone for add,
sub, reshape, transpose, sum and mean; for mul, div and matmul the other
operand only when that side needs a gradient; softmax its output.  An op
output's array therefore lives only while the caller holds its tensor or a
rule saved it, so the pre-bias matmul outputs and the raw and scaled attention
scores go as soon as the forward pass moves past them.  The sweep pops its
order as it runs and drops each node's rule and parents once the rule has run,
so a node the caller does not hold is freed right after its rule, with the
arrays its rule captured.  A tensor the caller keeps (the loss, a parameter, an
activation in a variable) keeps its array and its ``.grad``.  On a 2-core Xeon
VM (seed 1, after two warm steps), the most numpy allocated during one
training step, as ``tracemalloc`` counts it, was 20.6 MB on the benchmark's
default_full while the sweep held its whole order to the end, 13.4 MB once it
freed each node it had passed (with nodes still holding their operands'
tensors) and 6.6 MB with nodes that keep only what their rules read; 13.6,
9.2 and 5.0 MB on many_heads_full; 216.0, 131.7 and 59.1 MB on
wide_clip_vanilla.

A speed-up of the tape must keep four things, or the benchmark's counts or
the trained bits move:

* the op call the tracer sees: every op runs through its module attribute
  (``tensor.add``, ``tensor.matmul``, ...), which ``perfbench/tracing.py``
  wraps to count and time it, including the ones ``Tensor``'s operators call;
* each array's layout: numpy lays out an op's output and some gradients in
  other than C order (a mean's input gradient, a transposed weight's
  gradient), and the sums downstream of them run in that memory order;
* each reduction's order: the same ufunc reduce over the same memory, as the
  ``ndarray`` methods make it;
* each gradient's accumulation order: the sweep visits the interior nodes in
  the same post-order and adds each parent's gradients in that order, which
  decides the bits of a tensor with several consumers.

The pool.  Work spreads across a thread pool with one worker per CPU in the
process's affinity mask, the calling thread included, and at most
``MAX_WORKERS``: the split size was measured on 2 CPUs only, and how the pool
behaves on more is unverified.  The pool starts on first use and is rebuilt
in a forked child.  It runs work at two granularities, through one piece of
code (``_spread``): the caller and the helpers each claim the next unclaimed
piece until none is left, and an error raised in any piece is re-raised in
the caller.

* Row blocks of one op.  The heavy kernels (gelu, softmax and log_softmax,
  layer_norm, stacked matmul, elementwise arithmetic and gradient sums,
  conv3d's im2col/col2im copies) split when their largest array holds at
  least ``SPLIT_SIZE`` elements: the leading-axis rows are cut into one
  contiguous block per worker.  Smaller ops run their kernel once over the
  whole array, in the caller.  No split crosses a reduced axis or changes the
  shape of a BLAS call: row-wise kernels split only C-contiguous arrays along
  an axis they do not reduce, matmul splits only along a batch axis numpy
  already loops over (2-D GEMMs stay whole), and the reductions that sum over
  rows (``_unbroadcast``, layer_norm's scale and shift gradients) run whole in
  the caller.  Every element therefore comes from the same numpy or BLAS call
  on the same data, every output has the layout and dtype numpy gives it, and
  trained bits are identical for any worker count.  Blocks call only numpy
  and scipy, never another op, so the tape and ``count_ops`` do not see them.
* Whole items.  ``map_items(fn, items)`` runs independent items (the batches
  of an evaluation, the chunks of a split's clips) on the caller and the
  helpers.  Inside an item every op
  runs whole, and a nested ``map_items`` runs its items in order: a
  thread-local flag, set in the helpers for good and in the caller while it
  runs items, keeps work from ever being queued twice.  An item's results are
  therefore those of a serial loop, for any worker count.  Items see the
  process-wide ``no_grad`` and ``count_ops`` state of the caller.  On a 2-core
  Xeon VM, one evaluation of the benchmark's default_full took a median 72 ms
  with whole items, against 87 ms when the caller's items split their large
  ops (61 against 74 ms on many_heads_full).

Two measured settings come with whole items, on that VM (Linux 6.18):

* While items run, the caller and each helper are pinned to one CPU each of
  the caller's affinity mask, and get the mask back afterwards.  Items spend
  much of their time in Python, so the threads mostly hand the interpreter
  lock to each other, and the kernel kept both on one CPU: in a benchmark run
  of many_heads_full, 31 of 31 evaluations used one CPU's time (91-97 ms
  each); pinned, 46 of 46 used 1.8 CPUs' time (61-66 ms).
* Before the helpers start, glibc's malloc is limited to one arena
  (``M_ARENA_MAX`` 1), so a helper allocates from the main heap.  With an
  arena per thread, the helper's batch working set stayed resident beside the
  main heap: peak RSS read 392 MB on wide_clip_vanilla, against 310 MB with
  one arena.
"""
from __future__ import annotations

import itertools
import os
import queue
import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy import special as _special

from .errors import ConfigError, ContractError, GraphError, ShapeError
from .libc import mallopt

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_grad_enabled = True


def is_grad_enabled() -> bool:
    return _grad_enabled


class no_grad:
    """Context manager that disables graph construction."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class OpCounter:
    """Tallies forward operations and an approximate flop count, from any thread."""

    def __init__(self):
        self.ops: dict[str, int] = {}
        self.flops: int = 0
        self._lock = threading.Lock()

    def add(self, name: str, flops: int) -> None:
        with self._lock:  # the items of ``map_items`` count from several threads
            self.ops[name] = self.ops.get(name, 0) + 1
            self.flops += int(flops)


_counter: Optional[OpCounter] = None


class count_ops:
    """Installs an :class:`OpCounter` for the duration of the block."""

    def __enter__(self) -> OpCounter:
        global _counter
        self._prev = _counter
        _counter = OpCounter()
        return _counter

    def __exit__(self, *exc):
        global _counter
        _counter = self._prev
        return False


# -- worker pool --------------------------------------------------------------

# Elements in an op's largest array from which its kernel splits across the
# pool.  Measured on a 2-core Xeon VM (numpy 2.4.6, OpenBLAS on one thread),
# training step time against no splitting: the benchmark's wide_clip_vanilla
# ran at 0.69 with 2^17 (150 splits a step), 0.70 with 2^18 (79) and 0.71 with
# 2^19 (48); default_full made 20 splits a step at 2^17 and ran 13 % slower,
# and none at 2^18.  Waking a helper costs 80-280 us there, so smaller ops lose.
SPLIT_SIZE = 1 << 18

# Elements of attention scores that evaluation holds at a time.  Without a tape,
# ``backbone.PooledAttention`` computes scores, softmax and their product with
# the values over blocks of this many score elements' worth of batch rows, so a
# whole batch's scores never exist at once.  Each block issues the per-(clip,
# head) GEMMs the whole batch would, so the logits keep their bits.  Measured
# on a 2-core Xeon VM: on the benchmark's wide_clip_vanilla (64-clip batches
# of (2, 256, 256) scores, so 16-row blocks), one evaluation's traced numpy
# peak fell from 119-152 to 61-69 MB, and evaluation was no slower.
ATTENTION_BLOCK_SIZE = 1 << 21

# Most threads a pool runs, the caller included.  Every timing behind
# SPLIT_SIZE came from 2 CPUs.  On 64, an op of SPLIT_SIZE elements would cut
# into 64 blocks of 4096, each paying a helper's wake-up, and no worker count
# above 2 was measured.  Raise this only with a measurement on more CPUs.
MAX_WORKERS = 2

_tasks: Optional[queue.SimpleQueue] = None
_workers = 0  # 0 until the first large op starts the pool
_helpers: tuple[int, ...] = ()  # the helper threads' native ids
_pool_lock = threading.Lock()

# glibc's mallopt parameter (malloc.h) and the value the pool sets before it
# starts its helpers; see the module docstring.
_ONE_ARENA = (("M_ARENA_MAX", -8, 1),)


class _Inline(threading.local):
    """Per-thread flag: work started on this thread runs here and queues nothing.

    It is set for good in the helpers and, in the caller, for the length of
    :func:`map_items`' items, so no work is ever queued from inside queued work.
    """

    on = False


_inline = _Inline()


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _serve(tasks: queue.SimpleQueue) -> None:
    _inline.on = True
    while True:
        tasks.get()()


def _pool_workers() -> int:
    """Threads that run kernels, the caller included; starts the helpers on first use."""
    global _tasks, _workers, _helpers
    if not _workers:
        with _pool_lock:
            if not _workers:
                n = min(_cpu_count(), MAX_WORKERS)
                if n > 1:
                    mallopt(_ONE_ARENA)
                    _tasks = queue.SimpleQueue()
                    helpers = [
                        threading.Thread(target=_serve, args=(_tasks,), name=f"cotrain-split-{i}", daemon=True)
                        for i in range(n - 1)
                    ]
                    for thread in helpers:
                        thread.start()
                    _helpers = tuple(thread.native_id for thread in helpers)
                _workers = n
    return _workers


def _forget_pool() -> None:
    """In a forked child the helper threads are gone; the next split starts new ones."""
    global _tasks, _workers, _helpers, _pool_lock
    _tasks, _workers, _helpers, _pool_lock = None, 0, (), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pin(threads: Sequence[int], cpu_sets: Sequence[set]) -> None:
    """Give each thread id (0 is the calling thread) the matching CPU set; skip any the kernel refuses."""
    for tid, cpus in zip(threads, cpu_sets):
        try:
            os.sched_setaffinity(tid, cpus)
        except OSError:
            pass


def _spread(work: Callable[[int], None], n: int) -> None:
    """Run ``work(i)`` for every ``i`` in ``range(n)`` on the caller and the helpers.

    The pool must have at least two workers.  The caller queues one drain per
    helper it can use, then drains too: each drain claims the next unclaimed
    index until none is left.  A helper whose core was idle took 80-280 us to
    wake on a 2-core Xeon VM, and the caller does not wait for one that has
    not started.  It returns once every index has run, and then re-raises the
    first error any of them raised, in the caller.
    """
    claim = itertools.count().__next__
    done: queue.SimpleQueue = queue.SimpleQueue()
    held = [work]

    def drain():
        while (i := claim()) < n:
            try:
                held[0](i)
            except BaseException as err:  # re-raised in the caller
                done.put(err)
            else:
                done.put(None)

    for _ in range(min(n, _workers) - 1):
        _tasks.put(drain)
    drain()
    errors = [err for err in (done.get() for _ in range(n)) if err is not None]
    # A drain still queued for a helper that has not woken claims nothing;
    # without ``work`` it no longer keeps the arrays of this op alive.
    held.clear()
    if errors:
        raise errors[0]


def map_items(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, the items spread across the pool, each run whole.

    Every op inside an item runs whole on the thread that claimed the item, as
    does a nested ``map_items``: a thread-local flag keeps ``_split`` and this
    function from queuing work there.  With one item or one worker, or when
    called from inside an item, the items run in order in the caller, and the
    ops in them split as they would outside.  The items must be independent:
    what one computes must not depend on which thread runs it, or when.
    """
    if len(items) < 2 or _inline.on or _pool_workers() < 2:
        return [fn(item) for item in items]
    results = [None] * len(items)

    def work(i):
        results[i] = fn(items[i])

    # One CPU each for the caller and the helpers while the items run: left
    # to itself, the kernel kept both on one CPU (see the module docstring).
    threads = (0, *_helpers)
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if mask:
        _pin(threads, [{cpu} for cpu in sorted(mask)])
    _inline.on = True
    try:
        _spread(work, len(items))
    finally:
        _inline.on = False
        if mask:
            _pin(threads, [mask] * len(threads))
    return results


def _split(chunk, rows: int, like: Sequence[tuple]):
    """Run a row kernel over leading-axis rows ``[0, rows)`` of large arrays; return its outputs.

    ``chunk(r, *outs)`` computes rows ``r`` (a slice, or ``...`` for all rows)
    and returns its output array(s), writing each into the matching ``outs``
    argument when one is passed.  With one row or one worker, or inside an
    item of :func:`map_items`, ``chunk(...)`` runs once in the caller and
    numpy allocates the outputs.  Otherwise the outputs are allocated here as
    C-contiguous arrays of the ``(shape, dtype)`` pairs in ``like``, and the
    rows are cut into one contiguous block per worker, spread as
    :func:`_spread` spreads any work.  Callers split only arrays whose outputs
    numpy would also allocate C-contiguous, so the layout and every bit are
    the same whichever thread runs a block, for any worker count.
    """
    if rows < 2 or _inline.on or _pool_workers() < 2:
        return chunk(...)
    outs = [np.empty(shape, dtype=dtype) for shape, dtype in like]
    k = min(rows, _workers)
    bounds = [rows * i // k for i in range(k + 1)]

    def block(i):
        r = slice(bounds[i], bounds[i + 1])
        chunk(r, *(o[r] for o in outs))

    _spread(block, k)
    return outs[0] if len(outs) == 1 else outs


def _rowwise(chunk, like: Sequence[tuple], *arrays: np.ndarray, axis: Optional[int] = None):
    """Run a row kernel over same-shape ``arrays``: once below ``SPLIT_SIZE``, else split.

    Small arrays run ``chunk(...)`` once, over every row, with numpy
    allocating the outputs so they take the layout numpy gives them.  Only
    C-contiguous arrays split, and never along the reduced ``axis``: a block
    of rows then runs the same reductions over the same memory as the whole
    array does, and numpy's own outputs would be C-contiguous too.
    """
    x = arrays[0]
    if (
        x.size < SPLIT_SIZE
        or (axis is not None and axis % x.ndim == 0)
        or not all(arr.flags.c_contiguous for arr in arrays)
    ):
        return chunk(...)
    return _split(chunk, x.shape[0], like)


def _result_dtype(x: np.ndarray, y: np.ndarray) -> np.dtype:
    return x.dtype if x.dtype == y.dtype else np.result_type(x, y)


def _binary(op: np.ufunc, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``op(x, y)`` for an arithmetic ufunc, one call per block of output rows when large.

    An operand without the output's leading axis (a bias, a scalar) goes whole
    to every block.  Below ``SPLIT_SIZE`` the call is ``op(x, y)`` itself: this
    runs several hundred times a step on small arrays, where a closure and two
    more calls cost about 2 us a call on a 2-core Xeon VM.
    """
    if (x.size < SPLIT_SIZE and y.size < SPLIT_SIZE) or not (x.flags.c_contiguous and y.flags.c_contiguous):
        return op(x, y)
    shape = np.broadcast_shapes(x.shape, y.shape)
    rows = shape[0]
    sx = x.ndim == len(shape) and x.shape[0] == rows
    sy = y.ndim == len(shape) and y.shape[0] == rows

    def chunk(r, out=None):
        return op(x[r] if sx else x, y[r] if sy else y, out)

    return _split(chunk, rows, [(shape, _result_dtype(x, y))])


def _c_ordered_batch(arr: np.ndarray) -> bool:
    """Whether the batch axes of a matmul operand lie in C order in memory."""
    strides = [abs(s) for s, n in zip(arr.strides[:-2], arr.shape[:-2]) if n > 1]
    return all(s0 >= s1 for s0, s1 in zip(strides, strides[1:]))


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.matmul(x, y)``, one call per block of leading batch rows when large.

    numpy runs a stacked product as one GEMM per matrix, so a block of batch
    rows issues exactly the GEMMs the whole call would.  A 2-D product stays
    one call.  The output may hold more elements than either operand
    (``q @ k^T``); the size test bounds it from below without building its
    shape, as the test runs for every product.  Below ``SPLIT_SIZE`` the call
    is ``np.matmul(x, y)`` itself, as in :func:`_binary`.
    """
    if x.ndim > 2 or y.ndim > 2:
        m, n = x.shape[-2], y.shape[-1]
        size = max(x.size, y.size, x.size // max(x.shape[-1], 1) * n, y.size // max(y.shape[-2], 1) * m)
        if size >= SPLIT_SIZE and _c_ordered_batch(x) and _c_ordered_batch(y):
            shape = np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (m, n)
            rows = shape[0]
            sx = x.ndim == len(shape) and x.shape[0] == rows
            sy = y.ndim == len(shape) and y.shape[0] == rows

            def chunk(r, out=None):
                return np.matmul(x[r] if sx else x, y[r] if sy else y, out)

            return _split(chunk, rows, [(shape, _result_dtype(x, y))])
    return np.matmul(x, y)


def _contiguous(src: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(src)``, one copy per block of leading-axis rows when large."""
    if src.size < SPLIT_SIZE or src.flags.c_contiguous:
        return np.ascontiguousarray(src)

    def chunk(r, out=None):
        if out is None:
            out = np.empty(src[r].shape, dtype=src.dtype)
        np.copyto(out, src[r])
        return out

    return _split(chunk, src.shape[0], [(src.shape, src.dtype)])


class _Node:
    """An op output's entry on the tape: how to send its gradient on, and nothing of its array.

    ``parents`` holds one reference per operand: the operand's own node, the
    operand itself when it is a leaf that requires grad (the sweep adds into
    its ``grad`` and casts to its ``dtype`` as it is when the sweep runs), or
    ``None`` when it needs no gradient.  ``rule(grad)`` returns one gradient
    per operand; the sweep drops it and the parents once it has run, so a
    node with no rule has been swept.  ``mark`` is the sweep that last
    visited the node (see :func:`_topo_order`).
    """

    __slots__ = ("parents", "rule", "grad", "dtype", "mark")

    def __init__(self, parents: tuple, rule: Callable, dtype: np.dtype):
        self.parents = parents
        self.rule = rule
        self.grad: Optional[np.ndarray] = None
        self.dtype = dtype
        self.mark = 0


class Tensor:
    __slots__ = ("data", "requires_grad", "_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad: Optional[np.ndarray] = None  # a leaf's gradient; an op output's is on its node
        self._node: Optional[_Node] = None  # set on the outputs of ops that are taped

    @property
    def grad(self) -> Optional[np.ndarray]:
        node = self._node
        return self._grad if node is None else node.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        node = self._node
        if node is None:
            self._grad = value
        else:
            node.grad = value

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_coerce(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def relu(self):
        return relu(self)

    # -- reverse sweep ------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar and retire the tape.

        Gradients accumulate into ``.grad`` of every reachable tensor with
        ``requires_grad``.  The sweep consumes its order as it runs, so a node
        is released as soon as its own rule has run, with the arrays the rule
        captured, unless the caller still holds its tensor, which keeps its
        ``.grad``.  A second call on the same op output raises
        :class:`GraphError`; build a new forward graph instead.  On a leaf,
        which has no tape, it sets the leaf's gradient to ones.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ContractError("backward on a tensor that does not require grad")
        root = self._node
        if root is None:  # the root is itself a leaf
            self._grad = np.ones(self.data.shape, dtype=self.data.dtype)
            return
        if root.rule is None:
            raise GraphError("tape already consumed; run a new forward pass before backward")

        order = _topo_order(root)
        root.grad = np.ones(self.data.shape, dtype=self.data.dtype)
        while order:  # popping from the end is the reverse post-order
            node = order.pop()
            for parent, g in zip(node.parents, node.rule(node.grad)):
                if g is None or parent is None:
                    continue
                dtype = parent.dtype
                if g.dtype is not dtype and g.dtype != dtype:
                    g = g.astype(dtype)
                grad = parent.grad
                parent.grad = g if grad is None else _binary(np.add, grad, g)
            node.rule = None
            node.parents = ()


# Each sweep takes the next even number: a node it has entered is marked with
# that number, a node it has emitted with the number plus one, so every mark
# below the current number means "not visited by this sweep".
_sweep_marks = itertools.count(2, 2)


def _topo_order(root: _Node) -> list[_Node]:
    """Iterative post-order over the nodes that lead to ``root`` (parents first).

    Leaves (parameters and inputs) are never pushed: the sweep has nothing to
    run for them, and skipping them leaves the order of the nodes as a sweep
    over every grad-requiring ancestor would give it.
    """
    entered = next(_sweep_marks)
    order: list[_Node] = []
    stack = [root]
    while stack:
        node = stack[-1]
        mark = node.mark
        if mark < entered:
            node.mark = entered
            for p in node.parents:
                if type(p) is _Node and p.mark < entered:
                    if p.rule is None:
                        raise GraphError(
                            "graph shares nodes with an already-consumed tape; rebuild the forward pass"
                        )
                    stack.append(p)
        else:
            stack.pop()
            if mark == entered:
                node.mark = entered + 1
                order.append(node)
    return order


# -- op plumbing -------------------------------------------------------------


def _coerce(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    if isinstance(value, (int, float)):
        return Tensor(np.asarray(value, dtype=dtype))
    return Tensor(np.asarray(value))


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of a binary op as tensors; a Python scalar takes the other's dtype."""
    a = _coerce(a, getattr(b, "dtype", DEFAULT_DTYPE))
    return a, _coerce(b, a.dtype)


_new_tensor = object.__new__


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], rule, name: str, flops: int = 0) -> Tensor:
    """The output tensor of an op, built without ``Tensor.__init__``'s coercion.

    Op outputs are already float arrays of the dtype numpy gives them, except
    that a ufunc or full reduction over 0-d operands returns a numpy scalar,
    which is wrapped back into a 0-d array here.  When a tape is being built
    and an operand requires grad, the output gets a :class:`_Node` that
    references the operands' nodes, not the operands, so the output's array
    lives only as long as the caller holds the tensor or a rule captured it.
    """
    if _counter is not None:
        _counter.add(name, flops)
    if type(data) is not np.ndarray:
        data = np.asarray(data)
    out = _new_tensor(Tensor)
    out.data = data
    out._grad = None
    out._node = None
    out.requires_grad = False
    if _grad_enabled:
        # A plain loop: ``any()`` over a generator cost about 1 us per node.
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._node = _Node(
                    tuple([q._node or (q if q.requires_grad else None) for q in parents]), rule, data.dtype
                )
                break
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` along the axes numpy broadcasting added."""
    if g.shape == shape:  # most calls; skips building the axis tuples
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.add.reduce(g, tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = np.add.reduce(g, axes, None, None, True)
    return g


# -- elementwise arithmetic ---------------------------------------------------


def add(a, b) -> Tensor:
    if type(a) is not Tensor or type(b) is not Tensor:
        a, b = _operands(a, b)
    x, y = a.data, b.data
    data = _binary(np.add, x, y)
    x_shape, y_shape = x.shape, y.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        ga = _unbroadcast(g, x_shape) if need_a else None
        gb = _unbroadcast(g, y_shape) if need_b else None
        return ga, gb

    return _from_op(data, (a, b), backward, "add", data.size)


def sub(a, b) -> Tensor:
    if type(a) is not Tensor or type(b) is not Tensor:
        a, b = _operands(a, b)
    x, y = a.data, b.data
    data = _binary(np.subtract, x, y)
    x_shape, y_shape = x.shape, y.shape
    need_a, need_b = a.requires_grad, b.requires_grad

    def backward(g):
        ga = _unbroadcast(g, x_shape) if need_a else None
        gb = _unbroadcast(-g, y_shape) if need_b else None
        return ga, gb

    return _from_op(data, (a, b), backward, "sub", data.size)


def mul(a, b) -> Tensor:
    if type(a) is not Tensor or type(b) is not Tensor:
        a, b = _operands(a, b)
    x, y = a.data, b.data
    data = _binary(np.multiply, x, y)
    x_shape, y_shape = x.shape, y.shape
    # Each side's gradient reads the other operand: keep it only for a side that needs one.
    y_for_a = y if a.requires_grad else None
    x_for_b = x if b.requires_grad else None

    def backward(g):
        ga = None if y_for_a is None else _unbroadcast(_binary(np.multiply, g, y_for_a), x_shape)
        gb = None if x_for_b is None else _unbroadcast(_binary(np.multiply, g, x_for_b), y_shape)
        return ga, gb

    return _from_op(data, (a, b), backward, "mul", data.size)


def div(a, b) -> Tensor:
    if type(a) is not Tensor or type(b) is not Tensor:
        a, b = _operands(a, b)
    x, y = a.data, b.data
    data = _binary(np.divide, x, y)
    x_shape, y_shape = x.shape, y.shape
    need_a = a.requires_grad
    # Both gradients read the divisor; only the divisor's reads the dividend.
    y_kept = y if need_a or b.requires_grad else None
    x_for_b = x if b.requires_grad else None

    def backward(g):
        ga = _unbroadcast(_binary(np.divide, g, y_kept), x_shape) if need_a else None
        gb = None if x_for_b is None else _unbroadcast(-g * x_for_b / (y_kept * y_kept), y_shape)
        return ga, gb

    return _from_op(data, (a, b), backward, "div", data.size)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        return (-g,)

    return _from_op(-a.data, (a,), backward, "neg", a.size)


def power(a: Tensor, exponent: float) -> Tensor:
    p = float(exponent)
    data = a.data ** p
    a_data = a.data

    def backward(g):
        return (g * p * a_data ** (p - 1.0),)

    return _from_op(data, (a,), backward, "pow", a.size)


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        return (g * data,)

    return _from_op(data, (a,), backward, "exp", a.size)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)
    a_data = a.data

    def backward(g):
        return (g / a_data,)

    return _from_op(data, (a,), backward, "log", a.size)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        return (g * (0.5 / data),)

    return _from_op(data, (a,), backward, "sqrt", a.size)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return _from_op(data, (a,), backward, "relu", a.size)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, ``x * Phi(x)`` with the erf form."""
    x = a.data
    like = [(x.shape, x.dtype)]

    def forward(r, cdf=None, out=None):
        # cdf = 0.5 * (1 + erf(x / sqrt 2)), built in one buffer.
        xr = x[r]
        cdf = np.divide(xr, np.sqrt(2.0, dtype=x.dtype), out=cdf)
        _special.erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        return cdf, np.multiply(xr, cdf, out=out)

    cdf, data = _rowwise(forward, like * 2, x)

    def backward(g):
        def chunk(r, d=None):
            # g * (cdf + x * pdf) with pdf = exp(-x^2 / 2) / sqrt(2 pi), in one buffer.
            xr = x[r]
            d = np.multiply(-0.5, xr, out=d)
            d *= xr
            np.exp(d, out=d)
            d /= np.sqrt(2.0 * np.pi, dtype=x.dtype)
            d *= xr
            d += cdf[r]
            d *= g[r]
            return d

        return (_rowwise(chunk, like, x, g),)

    return _from_op(data, (a,), backward, "gelu", 8 * a.size)


# -- shape ops ----------------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = a.data
    data = x.reshape(shape)
    x_shape = x.shape

    def backward(g):
        return (g.reshape(x_shape),)

    return _from_op(data, (a,), backward, "reshape")


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute the axes of ``a``; ``axes`` names every axis once, negative ones from the end."""
    x = a.data
    n = x.ndim
    axes = _normalize_axes(tuple(axes), n)
    if len(axes) != n:
        raise ShapeError(f"transpose of a {n}-d tensor needs {n} axes, got {axes}")
    data = x.transpose(axes)
    inverse = [0] * n
    for i, ax in enumerate(axes):
        inverse[ax] = i

    def backward(g):
        return (g.transpose(inverse),)

    return _from_op(data, (a,), backward, "transpose")


def gather_rows(a: Tensor, index) -> Tensor:
    """Select rows along axis 0; repeated indices accumulate gradient."""
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs a 1-d index, got shape {idx.shape}")
    x = a.data
    if x.ndim < 1:
        raise ShapeError("gather_rows needs at least a 1-d operand")
    if idx.size and (np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= x.shape[0]):
        raise ShapeError(
            f"gather_rows index out of range for leading extent {x.shape[0]}"
        )
    data = x[idx]
    x_shape = x.shape

    def backward(g):
        out = np.zeros(x_shape, dtype=g.dtype)
        np.add.at(out, idx, g)
        return (out,)

    return _from_op(data, (a,), backward, "gather_rows", data.size)


# -- reductions ---------------------------------------------------------------
#
# Reductions call the ufunc's ``reduce`` with positional arguments: that is the
# call ``ndarray.sum`` and ``ndarray.max`` make after their Python-level
# wrappers, and a mean is that sum divided by ``np.intp(count)`` in place, as
# ``ndarray.mean`` computes it, so the bits are those of the methods.


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    """Axes in ``[0, ndim)``; ``None`` means all.  Out of range or repeated raises ShapeError."""
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = []
    for ax in axis:
        ax = int(ax)
        pos = ax + ndim if ax < 0 else ax
        if not 0 <= pos < ndim:
            raise ShapeError(f"axis {ax} out of range for {ndim}-d tensor")
        axes.append(pos)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate axes {tuple(axes)}")
    return tuple(axes)


def _reduction_setup(x: np.ndarray, axis):
    """Normalized axes, the count of reduced elements and the shape with the axes kept."""
    axes = _normalize_axes(axis, x.ndim)
    shape = list(x.shape)
    count = 1
    for ax in axes:
        extent = shape[ax]
        if extent == 0:
            raise ShapeError(f"cannot reduce over empty axis {ax} in shape {x.shape}")
        count *= extent
        shape[ax] = 1
    return axes, count, tuple(shape)


def _mean(x: np.ndarray, axis, count: int, keepdims: bool) -> np.ndarray:
    """``x.mean(axis, keepdims=keepdims)`` as an array, also when it reduces to 0-d."""
    total = np.add.reduce(x, axis, None, None, keepdims)
    if type(total) is not np.ndarray:
        total = np.asarray(total)
    return np.true_divide(total, np.intp(count), out=total, casting="unsafe")


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = a.data
    axes, _, kept = _reduction_setup(x, axis)
    data = np.add.reduce(x, axes, None, None, keepdims)
    x_shape = x.shape

    def backward(g):
        out = np.empty(x_shape, dtype=g.dtype)
        np.copyto(out, g if keepdims else g.reshape(kept))
        return (out,)

    return _from_op(data, (a,), backward, "sum", x.size)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = a.data
    axes, count, kept = _reduction_setup(x, axis)
    data = _mean(x, axes, count, keepdims)
    x_shape = x.shape

    def backward(g):
        # ``astype`` of the broadcast view keeps the memory order it gives,
        # which the gradients downstream of a mean over tokens depend on.
        full = g if keepdims else g.reshape(kept)
        return (np.broadcast_to(full / count, x_shape).astype(g.dtype),)

    return _from_op(data, (a,), backward, "mean", x.size)


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise ContractError("matmul operands must be tensors")
    x, y = a.data, b.data
    if x.ndim < 2 or y.ndim < 2:
        raise ShapeError(f"matmul needs 2-d or higher operands, got {x.shape} @ {y.shape}")
    if x.shape[-1] != y.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {x.shape} @ {y.shape}")
    try:
        data = _matmul(x, y)
    except ValueError as err:
        raise ShapeError(f"matmul batch dims do not broadcast: {x.shape} @ {y.shape}") from err
    x_shape, y_shape = x.shape, y.shape
    # Each side's gradient reads the other operand: keep it only for a side that needs one.
    y_for_a = y if a.requires_grad else None
    x_for_b = x if b.requires_grad else None

    def backward(g):
        ga = None if y_for_a is None else _unbroadcast(_matmul(g, y_for_a.swapaxes(-1, -2)), x_shape)
        gb = None if x_for_b is None else _unbroadcast(_matmul(x_for_b.swapaxes(-1, -2), g), y_shape)
        return ga, gb

    return _from_op(data, (a, b), backward, "matmul", 2 * data.size * x_shape[-1])


# -- neural-net primitives ----------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data

    def forward(r, out=None):
        xr = x[r]
        out = np.subtract(xr, np.maximum.reduce(xr, axis, None, None, True), out=out)
        np.exp(out, out=out)
        out /= np.add.reduce(out, axis, None, None, True)
        return out

    data = _rowwise(forward, [(x.shape, x.dtype)], x, axis=axis)

    def backward(g):
        def chunk(r, ga=None):
            gr, d = g[r], data[r]
            inner = np.add.reduce(gr * d, axis, None, None, True)
            ga = np.subtract(gr, inner, out=ga)
            ga *= d
            return ga

        return (_rowwise(chunk, [(data.shape, _result_dtype(g, data))], g, data, axis=axis),)

    return _from_op(data, (a,), backward, "softmax", 5 * x.size)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data

    def forward(r, out=None):
        xr = x[r]
        shifted = xr - np.maximum.reduce(xr, axis, None, None, True)
        lse = np.log(np.add.reduce(np.exp(shifted), axis, None, None, True))
        return np.subtract(shifted, lse, out=out)

    data = _rowwise(forward, [(x.shape, x.dtype)], x, axis=axis)

    def backward(g):
        def chunk(r, ga=None):
            gr = g[r]
            return np.subtract(gr, np.exp(data[r]) * np.add.reduce(gr, axis, None, None, True), out=ga)

        return (_rowwise(chunk, [(data.shape, _result_dtype(g, data))], g, data, axis=axis),)

    return _from_op(data, (a,), backward, "log_softmax", 5 * x.size)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale and shift."""
    x, gamma_data, beta_data = a.data, gamma.data, beta.data
    shape = x.shape
    d = shape[-1] if shape else 0
    if d == 0:
        raise ShapeError(f"layer_norm over an empty last axis, shape {shape}")
    if gamma_data.shape != (d,) or beta_data.shape != (d,):
        raise ShapeError(
            f"layer_norm scale/shift must have shape ({d},), got {gamma_data.shape} and {beta_data.shape}"
        )

    def forward(r, xhat=None, inv=None, out=None):
        # One mean and one centring; the variance divides as ``ndarray.var``
        # does, so the bits equal ``x.var(axis=-1)``.
        xr = x[r]
        xhat = np.subtract(xr, _mean(xr, -1, d, True), out=xhat)
        var = np.add.reduce(np.square(xhat), -1, None, None, True)
        np.true_divide(var, np.intp(d), out=var, casting="unsafe")
        var += eps
        inv = np.divide(1.0, np.sqrt(var, out=var), out=inv)
        xhat *= inv
        out = np.multiply(gamma_data, xhat, out=out)
        out += beta_data
        return xhat, inv, out

    like = [(shape, x.dtype), (shape[:-1] + (1,), x.dtype), (shape, _result_dtype(gamma_data, x))]
    xhat, inv, data = _rowwise(forward, like, x, axis=-1)
    need_a, need_gamma, need_beta = a.requires_grad, gamma.requires_grad, beta.requires_grad

    def backward(g):
        ga = dgamma = dbeta = None
        lead = tuple(range(len(shape) - 1))
        if need_gamma:
            dgamma = np.add.reduce(g * xhat, lead)
        if need_beta:
            dbeta = np.add.reduce(g, lead)
        if need_a:

            def chunk(r, ga=None):
                xh = xhat[r]
                dxhat = g[r] * gamma_data
                m1 = _mean(dxhat, -1, d, True)
                m2 = _mean(dxhat * xh, -1, d, True)
                return np.multiply(dxhat - m1 - xh * m2, inv[r], out=ga)

            dtype = np.result_type(g, gamma_data, xhat)
            ga = _rowwise(chunk, [(g.shape, dtype)], g, xhat, axis=-1)
        return ga, dgamma, dbeta

    return _from_op(data, (a, gamma, beta), backward, "layer_norm", 8 * x.size)


def conv3d(x: Tensor, kernel: Tensor) -> Tensor:
    """3-d convolution over ``(B, T, H, W, C_in)`` with kernel ``(kt, kh, kw, C_in, C_out)``.

    The stride is the kernel's extent and there is no padding, so the windows
    tile the input (the patch embed and every pool conv): im2col and its
    inverse are a reshape and a transpose of ``x`` around one GEMM each way.
    An input that the kernel does not tile raises ConfigError.
    """
    xd, kd = x.data, kernel.data
    if xd.ndim != 5:
        raise ShapeError(f"conv3d input must be 5-d (B,T,H,W,C), got {xd.shape}")
    if kd.ndim != 5:
        raise ShapeError(f"conv3d kernel must be 5-d (kt,kh,kw,Cin,Cout), got {kd.shape}")
    kt, kh, kw, cin, cout = kd.shape
    b, t, h, w, c = xd.shape
    if c != cin:
        raise ShapeError(
            f"conv3d channel mismatch: input {xd.shape} vs kernel {kd.shape}"
        )
    if t % kt or h % kh or w % kw:
        raise ConfigError(f"conv3d kernel {kd.shape[:3]} does not tile input ({t},{h},{w})")
    to, ho, wo = t // kt, h // kh, w // kw

    k_mat = kd.reshape(kt * kh * kw * cin, cout)
    m = b * to * ho * wo
    # im2col is a reshape + transpose of x (a view at unit stride).
    tiles = xd.reshape(b, to, kt, ho, kh, wo, kw, cin).transpose(0, 1, 3, 5, 2, 4, 6, 7)
    win_mat = _contiguous(tiles).reshape(m, kt * kh * kw * cin)
    data = np.matmul(win_mat, k_mat).reshape(b, to, ho, wo, cout)
    flops = 2 * data.size * kt * kh * kw * cin
    need_x = x.requires_grad
    win_for_k = win_mat if kernel.requires_grad else None  # only the kernel's gradient reads the windows

    def backward(g):
        gx = gk = None
        g_mat = g.reshape(m, cout)
        if win_for_k is not None:
            gk = np.matmul(win_for_k.T, g_mat).reshape(kt, kh, kw, cin, cout)
        if need_x:
            # Each input element sits in exactly one window: col2im is the inverse transpose.
            gx = np.matmul(g_mat, k_mat.T).reshape(b, to, ho, wo, kt, kh, kw, cin)
            gx = _contiguous(gx.transpose(0, 1, 4, 2, 5, 3, 6, 7)).reshape(b, t, h, w, cin)
        return gx, gk

    return _from_op(data, (x, kernel), backward, "conv3d", flops)
