#!/usr/bin/env python3
"""End-to-end smoke test for `sample_cli serve` (the serving daemon).

Drives the daemon over its length-prefixed stdin/stdout protocol and
asserts the response-status taxonomy, coalescing/registry counters, and
per-seed determinism. Five daemon instances:

 1. The happy path: sample draws (deterministic per seed, registry hit
    on the second request), a stats snapshot, a malformed verb (status
    1), an invalid request (status 3) whose error body names no absolute
    path — then a clean shutdown, exit 0.
 2. The pipelined path: 24 frames in one write before any reply is
    read — two kernels alternating, a malformed frame, a `stats` frame
    mid-stream. Replies must come back in request order with the
    expected statuses, each sample reply equal to the serial reply for
    its seed, and the stats reply must count exactly the requests before
    it. This drives the daemon's reader and writer threads concurrently
    (under the sanitizer legs too).
 3. The law over the wire: a small distilled feature kernel (n = 8,
    k = 3, so 56 subsets) is sampled on fixed seeds through the daemon,
    and the draws are chi-square-tested against det(L_S) enumerated
    here — cells with expected count below 5 pooled, the Wilson–Hilferty
    threshold at z = 4, as bench_largescale does.
 4. Non-finite sampler caps (`batched.extra_log_cap=nan` & co.) answer
    status 3 at once, naming the field, and the connection keeps serving.
 5. The framing-error path: an oversize declared length is
    unrecoverable — the daemon answers status 1 and exits 2.

Runs under the CI fault-injection leg too: the canned scoped schedule
is law-invariant (recoverable guard trips only), so every phase still
draws successfully and phase 3's law still holds.
"""

import itertools
import math
import os
import re
import signal
import struct
import subprocess
import sys
import time


def frame(payload: str) -> bytes:
    data = payload.encode()
    return struct.pack(">I", len(data)) + data


class Daemon:
    def __init__(self, binary, env=None):
        run_env = dict(os.environ)
        if env:
            run_env.update(env)
        self.proc = subprocess.Popen(
            [binary, "serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=run_env,
        )

    def request(self, payload: str):
        """One frame out, one framed (status, body) back."""
        self.write_frames([payload])
        return self.read_response()

    def write_frames(self, payloads):
        """Several frames in one write, without reading any reply."""
        self.proc.stdin.write(b"".join(frame(p) for p in payloads))
        self.proc.stdin.flush()

    def read_response(self):
        head = self.proc.stdout.read(4)
        assert len(head) == 4, f"short frame header: {head!r}"
        (size,) = struct.unpack(">I", head)
        payload = self.proc.stdout.read(size).decode()
        status_line, _, body = payload.partition("\n")
        assert status_line.startswith("status="), payload
        return int(status_line[len("status=") :]), body

    def close(self) -> int:
        self.proc.stdin.close()
        return self.proc.wait()


def parse_kv(body: str) -> dict:
    pairs = {}
    for line in body.splitlines():
        key, eq, value = line.partition("=")
        if eq:
            pairs[key] = value
    return pairs


def session_field(stats: dict, suffix: str) -> int:
    pattern = re.compile(r"^session\.[0-9a-f]{32}\." + re.escape(suffix) + "$")
    values = [int(value) for key, value in stats.items() if pattern.match(key)]
    assert len(values) == 1, f"expected one session.<fp>.{suffix}: {stats}"
    return values[0]


def sample_lines(body: str):
    return [l for l in body.splitlines() if l.startswith("sample=")]


def kernel_request(seed, count, off_diagonal="0.3", k=2, config=None):
    # Diagonally dominant symmetric 6x6 kernel: SymmetricKdppOracle.
    rows = []
    for i in range(6):
        rows.append(
            ",".join("4" if i == j else off_diagonal for j in range(6))
        )
    return (
        "sample\n"
        f"seed={seed}\ncount={count}\nk={k}\nkind=kernel\n"
        + (f"config={config}\n" if config else "")
        + "matrix=" + ";".join(rows) + "\n"
    )


# 8x4 feature rows (deterministic, full rank) for the law check.
LAW_FEATURES = [
    [((5 * i + 3 * j) % 7) - 3 + (2 if i % 4 == j else 0) for j in range(4)]
    for i in range(8)
]
LAW_K = 3


def feature_request(seed, count):
    rows = [",".join(str(v) for v in row) for row in LAW_FEATURES]
    return (
        "sample\n"
        f"seed={seed}\ncount={count}\nk={LAW_K}\nkind=features\n"
        "config=distill.enabled=1\n"
        "matrix=" + ";".join(rows) + "\n"
    )


def determinant(matrix):
    """Gaussian elimination with partial pivoting on a list of rows."""
    a = [list(map(float, row)) for row in matrix]
    n = len(a)
    det = 1.0
    for c in range(n):
        pivot = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[pivot][c] == 0.0:
            return 0.0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= factor * a[c][j]
    return det


def subset_law(features, k):
    """{subset: P(S)} with P(S) proportional to det(L_S), L = F F^T."""
    masses = {}
    for subset in itertools.combinations(range(len(features)), k):
        gram = [[sum(x * y for x, y in zip(features[a], features[b]))
                 for b in subset] for a in subset]
        masses[subset] = max(determinant(gram), 0.0)
    total = sum(masses.values())
    return {subset: mass / total for subset, mass in masses.items()}


def chi_square_pooled(expected, observed):
    """Pearson statistic with cells of expected < 5 pooled, and the
    Wilson-Hilferty upper quantile at z = 4 for its degrees of freedom."""
    statistic = 0.0
    cells = 0
    pooled_expected = 0.0
    pooled_observed = 0.0
    for e, o in zip(expected, observed):
        if e < 5.0:
            pooled_expected += e
            pooled_observed += o
            continue
        statistic += (o - e) ** 2 / e
        cells += 1
    if pooled_expected > 0.0 or pooled_observed > 0.0:
        statistic += (pooled_observed - pooled_expected) ** 2 / max(
            pooled_expected, 1.0)
        cells += 1
    dof = cells - 1 if cells > 1 else 1
    h = 2.0 / (9.0 * dof)
    threshold = dof * (1.0 - h + 4.0 * math.sqrt(h)) ** 3
    return statistic, dof, threshold


def phase_happy_path(binary):
    daemon = Daemon(binary)
    status, body = daemon.request(kernel_request(seed=11, count=3))
    assert status == 0, (status, body)
    first = sample_lines(body)
    assert len(first) == 3, body
    assert all(len(l.split("=")[1].split()) == 2 for l in first), body

    # Same seed, same kernel: bit-identical draws through the registry.
    status, body = daemon.request(kernel_request(seed=11, count=3))
    assert status == 0, (status, body)
    assert sample_lines(body) == first, "draws are not seed-deterministic"

    status, body = daemon.request("stats\n")
    assert status == 0, (status, body)
    stats = parse_kv(body)
    assert stats["draws"] == "6", stats
    assert stats["completed"] == "2", stats
    assert stats["registry.sessions"] == "1", stats
    assert stats["registry.misses"] == "1", stats
    assert stats["registry.hits"] == "1", stats
    assert session_field(stats, "failures") == 0, stats

    status, body = daemon.request("bogus-verb\n")
    assert status == 1, (status, body)
    status, body = daemon.request(
        "sample\nk=99\nmatrix=" + kernel_request(1, 1).split("matrix=")[1]
    )
    assert status == 3, (status, body)  # k exceeds ground size
    # Error bodies name the source relative to the repository root and
    # never leak the build host's absolute paths.
    error = parse_kv(body)["error"]
    assert "src/" in error, body
    assert not re.search(r"(^|[\s:=])/", error), body

    status, body = daemon.request("shutdown\n")
    assert status == 0, (status, body)
    code = daemon.close()
    assert code == 0, f"clean shutdown exited {code}"
    print("phase 1 (happy path + taxonomy): ok")


def phase_pipelined(binary):
    daemon = Daemon(binary)
    # 22 sample frames on two kernels (alternating), then a malformed
    # frame at position 7 and a stats frame at position 13.
    payloads = [
        kernel_request(seed=100 + i, count=2,
                       off_diagonal="0.3" if i % 2 == 0 else "-0.2")
        for i in range(22)
    ]
    samples = list(payloads)
    payloads.insert(7, "bogus-verb\n")
    payloads.insert(13, "stats\n")
    daemon.write_frames(payloads)

    replies = [daemon.read_response() for _ in payloads]
    for i, (status, body) in enumerate(replies):
        expected = 1 if i == 7 else 0
        assert status == expected, (i, status, body)

    # The stats reply counts exactly the 12 sample requests before it.
    stats = parse_kv(replies[13][1])
    assert stats["submitted"] == "12", stats
    assert stats["completed"] == "12", stats
    assert stats["draws"] == "24", stats
    assert stats["registry.sessions"] == "2", stats

    # Each pipelined reply equals the serial reply for the same request.
    pipelined = [sample_lines(body) for i, (_, body) in enumerate(replies)
                 if i not in (7, 13)]
    for request, drawn in zip(samples, pipelined):
        status, body = daemon.request(request)
        assert status == 0, (status, body)
        assert sample_lines(body) == drawn, (request, drawn, body)
    assert len(set(map(tuple, pipelined))) > 1, "every seed drew alike"

    status, body = daemon.request("shutdown\n")
    assert status == 0, (status, body)
    assert daemon.close() == 0
    print("phase 2 (pipelined frames, in order, serial-identical): ok")


def phase_law_over_the_wire(binary):
    law = subset_law(LAW_FEATURES, LAW_K)
    daemon = Daemon(binary)
    counts = {subset: 0 for subset in law}
    trials = 0
    for seed in (7001, 7002, 7003, 7004):
        status, body = daemon.request(feature_request(seed, count=1000))
        assert status == 0, (status, body)
        for line in sample_lines(body):
            subset = tuple(int(v) for v in line.split("=")[1].split())
            assert subset in counts, f"not a {LAW_K}-subset: {line}"
            counts[subset] += 1
            trials += 1
    assert trials == 4000, trials
    subsets = sorted(law)
    statistic, dof, threshold = chi_square_pooled(
        [law[s] * trials for s in subsets], [counts[s] for s in subsets])
    assert statistic < threshold, (
        f"distilled law off over the wire: chi2 {statistic:.1f} "
        f"(dof {dof}) >= {threshold:.1f}")
    status, body = daemon.request("shutdown\n")
    assert status == 0, (status, body)
    assert daemon.close() == 0
    print(f"phase 3 (distilled law over the wire): ok "
          f"(chi2 {statistic:.1f}, dof {dof}, threshold {threshold:.1f})")


def phase_non_finite_caps(binary):
    daemon = Daemon(binary)
    for config, field in (
        ("batched.extra_log_cap=nan", "extra_log_cap"),
        ("kind=entropic,entropic.cap_multiplier=nan", "cap_multiplier"),
        ("kind=entropic,entropic.log_ratio_cap=inf", "log_ratio_cap"),
    ):
        # A non-finite cap once reached the machine-count cast: the
        # daemon hung or spun for a minute. It must fail validation at
        # once, and the same connection must keep serving.
        start = time.monotonic()
        status, body = daemon.request(
            kernel_request(seed=5, count=1, k=3, config=config))
        elapsed = time.monotonic() - start
        assert status == 3, (config, status, body)
        assert field in body, (config, body)
        assert elapsed < 5.0, f"{config}: status 3 took {elapsed:.2f} s"
        status, body = daemon.request(kernel_request(seed=5, count=1))
        assert status == 0, (config, status, body)
    status, body = daemon.request("shutdown\n")
    assert status == 0, (status, body)
    assert daemon.close() == 0
    print("phase 4 (non-finite sampler caps -> status 3 at once): ok")


def phase_framing_error(binary):
    daemon = Daemon(binary)
    # Declared length 0xffffffff: beyond kMaxFrameBytes, unrecoverable.
    daemon.proc.stdin.write(b"\xff\xff\xff\xff")
    daemon.proc.stdin.flush()
    status, body = daemon.read_response()
    assert status == 1, (status, body)
    code = daemon.close()
    assert code == 2, f"framing error should exit 2, got {code}"
    print("phase 5 (unrecoverable framing error -> exit 2): ok")


def main():
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} <sample_cli-binary>", file=sys.stderr)
        return 2
    binary = sys.argv[1]
    if hasattr(signal, "alarm"):
        signal.alarm(300)  # fail loudly rather than hang CI
    phase_happy_path(binary)
    phase_pipelined(binary)
    phase_law_over_the_wire(binary)
    phase_non_finite_caps(binary)
    phase_framing_error(binary)
    print("serve smoke: all phases ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
