"""Layer tracing for the gset benchmark, installed from outside the package.

``Tracer.install()`` rebinds each traced public function of ``gset`` at
every module that holds it (``sign`` lives in ``gset.crypto``,
``gset.messages`` and ``gset.actors``; ``codec.encode`` is reached as a
module attribute) and wraps the traced methods on their classes.
``uninstall()`` puts every original object back.  Nothing under ``src/``
knows about tracing.

Each wrapped call records one span ``[name, parent, txn, t0, t1, nbytes,
failed]`` in memory.  A call made while a span of the same name is open
(``codec.encode`` recursing into nested messages, ``signing_payload``
calling ``signing_payload_from``) opens no span of its own, so counts are
outermost calls and the recursion adds to the outer span's self time.
The outermost ``run_storage_scenario`` call opens a new transaction id.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

ROOT = "scenario.run_storage_scenario"

# (module, function, span name) for module-level functions.  Every gset
# module that binds the same function object is rebound.
FUNCTIONS = (
    ("gset.crypto", "sign", "crypto.sign"),
    ("gset.crypto", "verify", "crypto.verify"),
    ("gset.crypto", "seal", "crypto.seal"),
    ("gset.crypto", "open_envelope", "crypto.open_envelope"),
    ("gset.crypto", "hash_bytes", "crypto.hash_bytes"),
    ("gset.crypto", "generate_keypair", "crypto.generate_keypair"),
    ("gset.codec", "encode", "codec.encode"),
    ("gset.codec", "decode", "codec.decode"),
    ("gset.codec", "signing_payload", "codec.signing_payload"),
    ("gset.codec", "signing_payload_from", "codec.signing_payload"),
    ("gset.messages", "build_signed", "messages.build_signed"),
    ("gset.messages", "verify_signed", "messages.verify_signed"),
    ("gset.simnet", "run_scenario", "simnet.run_scenario"),
    ("gset.simnet", "assert_privacy", "simnet.assert_privacy"),
    ("gset.scenario", "build_scenario", "scenario.build_scenario"),
    ("gset.scenario", "run_storage_scenario", ROOT),
)

# (module, class, method, span name).  ``deliver`` is inherited from the
# actor base class, so each actor class gets its own wrapper.
METHODS = (
    ("gset.ledger", "Ledger", "place_hold", "ledger.place_hold"),
    ("gset.ledger", "Ledger", "settle_hold", "ledger.settle_hold"),
    ("gset.ledger", "Ledger", "snapshot", "ledger.snapshot"),
    ("gset.actors", "ServiceRequester", "deliver", "actors.SR.deliver"),
    ("gset.actors", "ServiceProvider", "deliver", "actors.SP.deliver"),
    ("gset.actors", "TrustManager", "deliver", "actors.TM.deliver"),
    ("gset.actors", "AccountProvider", "deliver", "actors.AP.deliver"),
    ("gset.simnet", "Adversary", "act", "simnet.adversary_act"),
    # the nested exchange an actor makes inside its own deliver; as a span
    # of its own it keeps the runner's work out of the actor's self time
    ("gset.simnet", "_NetHandle", "call", "simnet.net_call"),
)

# Key classes whose ``from_private_bytes`` parses are counted, through the
# names gset.crypto itself calls them by.
KEY_CLASSES = ("Ed25519PrivateKey", "X25519PrivateKey")


def _message_len(args, result):
    return len(args[1])


def _first_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


def _wire_bytes(args, result):
    return sum(len(record.payload) for record in result.records)


def _false(result):
    return result is False


BYTES = {
    "crypto.sign": _message_len,
    "crypto.verify": _message_len,
    "crypto.hash_bytes": _first_len,
    "codec.encode": _result_len,
    "simnet.run_scenario": _wire_bytes,
}
FAILED = {"crypto.verify": _false}
# Spans whose failures (a False result or an exception) are reported.
REPORTS_FAIL = ("crypto.verify", "codec.decode")


class _KeyClassProxy:
    """Stands in for a key class inside gset.crypto and counts parses."""

    def __init__(self, tracer: "Tracer", cls: type) -> None:
        self._tracer = tracer
        self._cls = cls

    def from_private_bytes(self, data):
        self._tracer.count_key_parse()
        return self._cls.from_private_bytes(data)

    def __getattr__(self, name):
        return getattr(self._cls, name)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()  # (txn, key) -> n
        self.txn = -1
        self._undo: list[tuple] = []

    # --- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        nbytes = BYTES.get(name)
        failed = FAILED.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if not stack and name == ROOT:
                tracer.txn += 1
            span = [name, stack[-1] if stack else -1, tracer.txn, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[6] = 1
                raise
            finally:
                span[4] = perf_counter_ns()
                stack.pop()
            if nbytes is not None:
                span[5] = nbytes(args, result)
            if failed is not None:
                span[6] = int(failed(result))
            if name == "simnet.run_scenario":
                tracer.counters[(tracer.txn, "simnet.records.count")] += len(result.records)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count_key_parse(self) -> None:
        self.counters[(self.txn, "crypto.key_parse.count")] += 1
        if self.stack and self.spans[self.stack[-1]][0] == "crypto.sign":
            self.counters[(self.txn, "crypto.sign.key_parse")] += 1

    # --- installing --------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        try:
            self._rebind_all()
        except BaseException:
            self.uninstall()
            raise

    def _rebind_all(self) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if (key == "gset" or key.startswith("gset.")) and mod is not None]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value, True))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            own = attr in cls.__dict__
            self._undo.append((cls, attr, cls.__dict__.get(attr), own))
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
        crypto = sys.modules["gset.crypto"]
        for cls_name in KEY_CLASSES:
            original = getattr(crypto, cls_name)
            self._undo.append((crypto, cls_name, original, True))
            setattr(crypto, cls_name, _KeyClassProxy(self, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- results -----------------------------------------------------------

    @property
    def transactions(self) -> int:
        return self.txn + 1

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [span[4] - span[3] for span in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                own[span[1]] -= span[4] - span[3]
        return own

    def per_txn_ops(self) -> list[dict[str, int]]:
        """Deterministic op counts (counts, bytes, failures) per transaction."""
        ops = [Counter() for _ in range(self.transactions)]
        for name, _parent, txn, _t0, _t1, nbytes, failed in self.spans:
            if txn < 0:
                continue
            ops[txn][name + ".count"] += 1
            if name in BYTES:
                ops[txn][name + ".bytes"] += nbytes
            if name in REPORTS_FAIL:
                ops[txn][name + ".fail"] += failed
        for (txn, key), n in self.counters.items():
            if txn >= 0:
                ops[txn][key] += n
        for counter in ops:
            counter["simnet.wire_bytes"] = counter.pop("simnet.run_scenario.bytes", 0)
        return [dict(counter) for counter in ops]

    def layer_metrics(self) -> dict[str, float]:
        """Per-transaction means of every count, byte total and self time."""
        n = self.transactions
        if n < 1:
            raise RuntimeError("no transaction was traced")
        totals: Counter = Counter()
        for ops in self.per_txn_ops():
            totals.update(ops)
        for span, own in zip(self.spans, self.self_ns()):
            if span[2] >= 0:
                totals[span[0] + ".self_ms"] += own / 1e6
        return {key: value / n for key, value in sorted(totals.items())}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\ttxn\tname\tstart_ns\tend_ns\tbytes\tfailed\n")
            for index, (name, parent, txn, t0, t1, nbytes, failed) in enumerate(self.spans):
                out.write(f"{index}\t{parent}\t{txn}\t{name}\t{t0}\t{t1}\t{nbytes}\t{failed}\n")
