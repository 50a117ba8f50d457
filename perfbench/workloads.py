"""The benchmark's workloads: how each builds its inputs, runs one op and checks it.

A workload builds a fixed list of ops, ``ops``; an op is a label, the verify
suite it belongs to (or None), a call into the library and a check of the
call's output.  ``one_pass()`` gives the ops in the order of one pass.
``build`` takes the imported ``dominsert`` package.  Inputs come only from
the workload seed; the library receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, NamedTuple, Optional


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def record_key(name, params):
    return f"{name} {json.dumps(params, sort_keys=True)}"


def record_digest(record):
    # ``ms`` is a wall-clock reading inside the library, not output
    return digest({k: v for k, v in record.items() if k != "ms"})


class Op(NamedTuple):
    label: str
    suite: Optional[str]
    call: Callable
    check: Callable


def verify_instances(verify):
    """Every record of the seven verify suites at library defaults, with its suite."""
    for suite in verify.SUITES:
        for instance in verify.suite_instances(suite, {}):
            yield suite, instance


class RecordWorkload:
    """Ops are the records of ``verify_instances``, one record per op.

    One pass runs every record once, in an order drawn from the seed.
    """

    def __init__(self, name):
        self.name = name

    def build(self, lib, seed, expected):
        verify = lib.verify
        table = expected["records"][self.name]
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops = []
        for suite, instance in verify_instances(verify):
            key = record_key(*instance)
            self.ops.append(Op(key, suite, self._caller(verify, instance), self._checker(table.get(key))))
        if len(self.ops) != len(table):
            raise RuntimeError(f"{self.name}: {len(self.ops)} records, {len(table)} expected")

    @staticmethod
    def _caller(verify, instance):
        return lambda: verify.run_instance(instance)

    @staticmethod
    def _checker(want):
        return lambda record: record["pass"] is True and record_digest(record) == want

    def one_pass(self):
        batch = list(self.ops)
        self.rng.shuffle(batch)
        return batch


class RoundTripWorkload:
    """Ops are seeded random signed permutations of size n, one word per op.

    One pass runs the same ``WORDS`` words, so that each is timed several
    times in a run.  Each letter is barred on a fair coin and the core
    rotates over 0, 1, 2 with the word's number plus the seed, so with three
    words every core is run at every seed.  One op runs
    bumping insertion, the growth diagram and the reverse growth; its check
    asks that growth's P and Q equal bumping's and that the reverse gives
    back the word.  For the seeds in ``expected.json`` the P/Q digest of each
    word is compared too.
    """

    WORDS = 3

    def __init__(self, name, n):
        self.name = name
        self.n = n

    def build(self, lib, seed, expected):
        self.lib = lib
        self.seed = seed
        self.digests = expected["roundtrip"].get(self.name, {}).get(str(seed), [])
        self.ops = [self.op(k) for k in range(self.WORDS)]

    def word(self, k):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        values = list(range(1, self.n + 1))
        rng.shuffle(values)
        return tuple(self.lib.words.Letter(v, rng.random() < 0.5) for v in values)

    def op(self, k):
        insertion = self.lib.insertion
        word = self.word(k)
        core = (self.seed + k) % 3

        def call():
            bumped = insertion.insert_word(word, core)
            grown = insertion.growth(word, core)
            back = insertion.growth_reverse_word(bumped.p, bumped.q)
            return bumped, grown.p_tableau(), grown.q_tableau(), back

        def check(out):
            bumped, p_grown, q_grown, back = out
            ok = back == word and p_grown == bumped.p and q_grown == bumped.q
            if ok and k < len(self.digests):
                ok = pq_digest(bumped) == self.digests[k]
            return ok

        return Op(f"word {k}", None, call, check)

    def one_pass(self):
        return list(self.ops)


def pq_digest(bumped):
    return digest({"p": bumped.p.to_json(), "q": bumped.q.to_json()})


WORKLOADS = {
    "verify-all": RecordWorkload("verify-all"),
    "roundtrip-n200": RoundTripWorkload("roundtrip-n200", 200),
}
