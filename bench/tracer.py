"""Span tracer for the traced benchmark run.

hamsync is traced from outside.  Each traced function is replaced at every
module attribute that binds it, because the modules import names directly
(``probproto.rs_correct`` is ``gf2k_rs.rs_correct``).  Party generators are
wrapped in proxy generators that time each step.  A few methods are patched
on their class.  The wrappers exist only between ``install`` and
``uninstall``; nothing in ``src/`` knows about them.

Each call becomes a span (id, name, start, end, parent id, trial id), kept
in memory per thread.  A span's self time is its duration minus that of
its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Optional

FUNCTIONS = {
    "transport": ("run_protocol", "run_party"),
    "gf2k_rs": ("field", "rs_extra_evals", "rs_correct"),
    "probproto": ("apply_permutation", "sample_inner_code"),
    "gf2codes": ("mat_vec", "unique_decode", "list_decode_exhaustive", "random_linear_code"),
    "hashing": (
        "find_injective_prime",
        "find_secondary_hash",
        "random_prime_hash",
        "random_prime_pool",
        "sieve_primes",
    ),
    "syncdet": ("coset_representative", "build_greedy_coloring"),
    "bitword": ("pack_fields", "unpack_fields"),
}
# Each step of these generators is a "<module>.party" span.
PARTIES = {
    "probproto": ("composite_alice", "composite_bob", "one_round_prob_alice", "one_round_prob_bob"),
    "syncdet": (
        "brute_alice",
        "brute_bob",
        "syndrome_alice",
        "syndrome_bob",
        "listdec_alice",
        "listdec_bob",
        "coloring_alice",
        "coloring_bob",
    ),
    "hashing": ("nba_alice", "nba_bob", "multi_nba_alice", "multi_nba_bob"),
}
METHODS = (
    ("gf2codes", "AffineSolver", "__init__", "gf2codes.affine_solver_build"),
    ("transport", "TcpEnd", "send_bits", "transport.tcp_send"),
    ("transport", "TcpEnd", "recv_bits", "transport.tcp_recv"),
)


class _ThreadSpans:
    def __init__(self, main: bool) -> None:
        self.main = main
        self.stack: list[int] = []
        self.closed: list[tuple] = []
        self.next_id = 0


class Tracer:
    def __init__(self) -> None:
        self.trial: Optional[int] = None  # trial in progress; None during set-up
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        for module, names in FUNCTIONS.items():
            for name in names:
                self._patch_bindings(module, name, self._timed(f"{module}.{name}"))
        for module, names in PARTIES.items():
            for name in names:
                self._patch_bindings(module, name, self._party(f"{module}.party"))
        for module, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(f"hamsync.{module}"), cls_name)
            original = getattr(cls, attr)
            self._patches.append((cls, attr, original, self._timed(span)(original)))

    def _patch_bindings(self, module: str, name: str, wrap) -> None:
        original = getattr(importlib.import_module(f"hamsync.{module}"), name)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "hamsync" and not mod_name.startswith("hamsync."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans(
                threading.current_thread() is threading.main_thread()
            )
            with self._lock:
                self._threads.append(spans)
        return spans

    def _enter(self, name: str) -> tuple:
        spans = self._spans()
        sid = spans.next_id
        spans.next_id += 1
        parent = spans.stack[-1] if spans.stack else -1
        spans.stack.append(sid)
        return spans, sid, name, parent, perf_counter()

    def _exit(self, token: tuple) -> None:
        end = perf_counter()
        spans, sid, name, parent, start = token
        spans.stack.pop()
        spans.closed.append((sid, name, start, end, parent, self.trial))

    def _timed(self, name: str):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                token = self._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(token)

            return wrapper

        return wrap

    def _party(self, name: str):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                return self._proxy(fn(*args, **kwargs), name)

            return wrapper

        return wrap

    def _proxy(self, gen, name: str):
        sent = None
        try:
            while True:
                token = self._enter(name)
                try:
                    out = gen.send(sent)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._exit(token)
                sent = yield out
        finally:
            gen.close()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Self time and call counts per span name, split into set-up and
        trial spans; trial self time of the main thread alone; and, per
        ``parent>child`` pair of names, how often the child ran inside it."""
        setup_s: dict[str, float] = defaultdict(float)
        trial_s: dict[str, float] = defaultdict(float)
        main_trial_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        nested: dict[str, int] = defaultdict(int)
        for spans in self._threads:
            names = {sid: name for sid, name, *_ in spans.closed}
            child_s: dict[int, float] = defaultdict(float)
            for _sid, _name, start, end, parent, _trial in spans.closed:
                child_s[parent] += end - start
            for sid, name, start, end, parent, trial in spans.closed:
                self_s = end - start - child_s[sid]
                if trial is None:
                    setup_s[name] += self_s
                    continue
                trial_s[name] += self_s
                calls[name] += 1
                if spans.main:
                    main_trial_s[name] += self_s
                if parent >= 0:
                    nested[f"{names[parent]}>{name}"] += 1
        return {
            "setup_s": dict(setup_s),
            "trial_s": dict(trial_s),
            "main_trial_s": dict(main_trial_s),
            "calls": dict(calls),
            "nested": dict(nested),
        }

    def write(self, path, max_trial: int) -> None:
        """Write set-up spans and those of trials below max_trial as JSON lines."""
        with open(path, "w") as f:
            for number, spans in enumerate(self._threads):
                for sid, name, start, end, parent, trial in spans.closed:
                    if trial is None or trial < max_trial:
                        record = {
                            "thread": number,
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "trial": trial,
                        }
                        f.write(json.dumps(record) + "\n")
