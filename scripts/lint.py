#!/usr/bin/env python3
"""Repo lint: secret-handling, hostile-input, and concurrency discipline.

Three families of rules (DESIGN.md "Static analysis" has the invariant
table; each rule can name an allowlist of files where the construct is the
implementation itself, not a violation):

Secret taint (PR 3):
  R1  no libc randomness (rand/srand/random/rand_r) — all randomness goes
      through crypto::Rng (ChaCha20, /dev/urandom-seeded).
  R2  no memcmp/bcmp in the crypto/abs/cpabe layers — byte comparisons on
      key or MAC material early-exit; use crypto::CtEqBytes / CtEq.
  R3  no assert() on request-path code — SP-supplied bytes must fail
      gracefully (ByteReader::ok()), not abort in release builds where
      NDEBUG strips the check entirely.
  R4  reinterpret_cast only inside the ByteReader/Writer implementation and
      the urandom seed read — everywhere else it is a sign that SP-supplied
      bytes are being reinterpreted without bounds discipline.
  R5  no naked new/delete — containers and smart pointers only.
  R6  Secret<T>::Declassify() call sites carry a `// declassify:` reason on
      the same or the preceding line, so `--list-declassify` is a complete
      audit of every point where secret taint leaves the type system.
  R7  Secret<T>::ct_ref() only in src/crypto/ — it hands the raw value to
      the constant-pattern kernels and must not leak into protocol code.

Untrusted taint (hostile-SP path):
  R8  Untrusted<T>::Unvalidated()/ReleaseUnvalidated() call sites carry an
      `// untrusted-ok:` reason on the same or a nearby preceding line, so
      `--list-untrusted` is a complete audit of every point where wire
      bytes leave the taint wrapper.
  R9  the type-level [[nodiscard]] markers (VerifyResult, WireError,
      FrameDecodeError, Untrusted<T>) stay in place — removing one silently
      re-legalizes dropped verification verdicts tree-wide.
  R10 DeserializeRaw()/DecodeFrameRaw() only inside the serde layer that
      defines them (the VO/update codec files and net/frame.*) — protocol
      code must take the Untrusted-returning entry points.
  R11 `(void)` discards of function calls carry a `// discard-ok:` reason
      (src/, tests/, bench/, examples/), so `--list-discards` audits every
      deliberately dropped return value; accidental drops of [[nodiscard]]
      values are compile errors under -Werror (check.sh).
  R12 freshness gates first, by construction: every checked Verify*Vo
      entry hands its VO to the shared RunVerify driver before any
      structural or signature work (SigBatch, policy Evaluate, coverage
      checks), and RunVerify itself runs the stamp checks (CheckStampFields,
      or the whole CheckFreshness) before the walk and the batch the
      attestations join — a replayed VO must fail kStaleEpoch before the
      verifier spends effort on it or leaks timing about its contents.
      Non-vacuity:
      every Verify*Vo name declared in src/ must have a body R12 checked,
      and the driver body must be found, so a signature the rule stops
      recognizing fails the lint instead of silently passing it.
  R13 fatal means fatal: in net/client.cc a kVerifyRejected/kServerRejected
      status must be returned immediately (never looped back into a retry),
      and in net/frame.cc RpcErrorRetryable must keep kBadRequest/kInternal
      non-retryable.
  R15 durable-state decoders stay tainted: the WAL/snapshot layer
      (common/journal.*, core/sp_storage.*) decodes bytes a crashed or
      hostile disk controls, so every decode surface must hand results back
      as Untrusted<T> (no naked JournalRecord*/GridTree* outs), and those
      codec files must stay on the R10 raw-decoder allowlist — they are the
      boundary that applies the taint.

Lock ranking:
  R14 no raw std::mutex / std::condition_variable in src/ outside
      common/lock_rank.h — every lock carries its LockRank so the lockdep
      shim can check the documented order (condition variables waiting on a
      RankedMutex must be std::condition_variable_any).

Kernel confinement:
  R16 inline assembly and vendor intrinsics (__asm__, asm(...),
      immintrin/x86intrin includes, mulx/adcx/adox/addcarry intrinsics,
      __builtin_cpu_supports) live only in src/crypto/mont_accel.cc — the
      one runtime-dispatched TU with a portable differential oracle.
      Anywhere else they would silently fork the portable/accelerated
      semantics without the oracle or the APQA_FORCE_PORTABLE escape hatch.

Usage:
  scripts/lint.py                    lint the tree (exit 1 on violations)
  scripts/lint.py --list-declassify  print the secret declassification audit
  scripts/lint.py --list-untrusted   print the wire-taint escape audit
  scripts/lint.py --list-discards    print the (void)-discard audit
  scripts/lint.py --self-test        run the seeded-violation fixtures
  scripts/lint.py --no-cache         ignore the incremental result cache

Results are cached per file (content hash + lint.py hash) in
build/lint_cache.json, so a warm re-run touches only edited files.
"""

import hashlib
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
AUDIT_ROOTS = [SRC] + [os.path.join(REPO, d)
                       for d in ("reference", "tests", "bench", "examples")]
FIXTURES = os.path.join(REPO, "scripts", "lint_fixtures")
CACHE_PATH = os.path.join(REPO, "build", "lint_cache.json")

# (rule id, regex, message, allowlist of repo-relative files, path prefix
# restricting where the rule applies; None = all of src/)
RULES = [
    ("R1", re.compile(r"\b(?:s?rand|random|rand_r)\s*\("),
     "libc randomness; use crypto::Rng", [], None),
    ("R2", re.compile(r"\b(?:memcmp|bcmp)\s*\("),
     "early-exit compare on potential key material; use crypto::CtEqBytes",
     [], ("src/crypto/", "src/abs/", "src/cpabe/")),
    ("R3", re.compile(r"\bassert\s*\("),
     "assert() on request-path code; signal failure via return values", [],
     None),
    ("R4", re.compile(r"\breinterpret_cast\s*<"),
     "reinterpret_cast outside the serialization boundary",
     # socket_transport.cc: the sockaddr_in/sockaddr pun demanded by the
     # POSIX socket API, confined to one helper.
     ["src/common/serde.h", "src/crypto/rng.cc",
      "src/net/socket_transport.cc"], None),
    ("R5", re.compile(r"(?:^|[^_\w.])(?:new\s+[A-Za-z_:][\w:<>]*\s*[({[]|"
                      r"delete\s*(?:\[\s*\])?\s+[A-Za-z_])"),
     "naked new/delete; use containers or smart pointers", [], None),
    ("R7", re.compile(r"\.ct_ref\s*\(\)"),
     "ct_ref() outside src/crypto/ — the raw secret value must stay inside "
     "the constant-pattern kernels",
     [], None),
    # R10: the Raw entry points skip the taint wrapper; outside the codec
    # layer that implements them they are a taint bypass. Tests and bench
    # craft raw bytes deliberately and are exempt (the rule scopes to src/).
    ("R10", re.compile(r"\b(?:DeserializeRaw|DecodeFrameRaw)\s*\("),
     "raw (untainted) decode outside the serde layer; call the "
     "Untrusted-returning Deserialize/DecodeFrame instead",
     ["src/core/vo.h", "src/core/vo.cc",
      "src/core/join_query.h", "src/core/join_query.cc",
      "src/core/kd_tree.h", "src/core/kd_tree.cc",
      "src/core/duplicates.h", "src/core/duplicates.cc",
      "src/core/continuous.h", "src/core/continuous.cc",
      "src/core/app_signature.h", "src/core/app_signature.cc",
      "src/core/ads_update.h", "src/core/ads_update.cc",
      "src/core/grid_tree.cc",
      "src/common/journal.h", "src/common/journal.cc",
      "src/core/sp_storage.h", "src/core/sp_storage.cc",
      "src/net/frame.h", "src/net/frame.cc"], None),
    # R15: the durable-state layer decodes bytes that a crashed or hostile
    # disk controls; a decode surface handing back a naked pointer to the
    # decoded type bypasses the Untrusted<T> taint (the legal
    # `Untrusted<JournalRecord>*` form never matches — `>` sits between the
    # type name and the `*`).
    ("R15", re.compile(r"\b(?:JournalRecord|GridTree)\s*\*"),
     "durable-state decode surface without the Untrusted<T> wrapper; WAL/"
     "snapshot bytes are hostile until the recovery gate re-verifies them",
     [], ("src/common/journal", "src/core/sp_storage")),
    # R14: a raw mutex is invisible to the lock-rank validator. once_flag /
    # call_once stay legal (no ordering to validate: one-shot, no unlock).
    # The \b keeps std::condition_variable_any legal — it is the only cv
    # type that can wait on a RankedMutex.
    ("R14", re.compile(r"std::(?:mutex\b|timed_mutex|recursive_mutex|"
                       r"shared_mutex|condition_variable\b|"
                       r"(?:unique_lock|lock_guard|scoped_lock)\s*<\s*"
                       r"std::mutex)"),
     "raw mutex/cv outside the lock-rank shim; use "
     "common::RankedMutex<LockRank> (+ std::condition_variable_any)",
     ["src/common/lock_rank.h"], None),
    # R16: accelerated-kernel confinement. Inline asm or vendor intrinsics
    # outside the dispatched kernel TU would fork portable/accelerated
    # semantics without the differential oracle or the APQA_FORCE_PORTABLE
    # override covering them.
    ("R16", re.compile(r"__asm__|\basm\s*(?:volatile|goto)?\s*[\(]|"
                       r"#\s*include\s*<(?:imm|x86|wmm|emm|smm|tmm)intrin\.h>|"
                       r"\b_(?:mulx_u64|addcarryx?_u64|subborrow_u64|"
                       r"mm\d*_[a-z])|__builtin_cpu_supports"),
     "inline asm / vendor intrinsics outside the accelerated-kernel TU; "
     "put dispatched kernels in crypto/mont_accel.cc where the portable "
     "oracle and APQA_FORCE_PORTABLE cover them",
     ["src/crypto/mont_accel.cc"], None),
]

# R15 companion: the durable-state codec files must stay on the R10
# allowlist — they are the boundary that applies the Untrusted<T> taint to
# disk bytes, so dropping one from the allowlist silently outlaws (or worse,
# re-routes) the raw decode it legitimately owns.
DURABLE_STATE_FILES = ("src/common/journal.h", "src/common/journal.cc",
                       "src/core/sp_storage.h", "src/core/sp_storage.cc")


def check_durable_allowlist(violations):
    r10_allow = next(allow for rule, _, _, allow, _ in RULES
                     if rule == "R10")
    for rel in DURABLE_STATE_FILES:
        if rel not in r10_allow:
            violations.append(
                (rel, 1, "R15",
                 "durable-state codec file missing from the R10 raw-decoder "
                 "allowlist — it is the layer that applies the Untrusted<T> "
                 "taint to WAL/snapshot bytes", rel))


# R9: type-level [[nodiscard]] markers whose removal must fail the lint.
NODISCARD_MARKERS = {
    "src/core/verify_result.h":
        [(re.compile(r"struct\s+\[\[nodiscard\]\]\s+VerifyResult\b"),
          "VerifyResult")],
    "src/common/serde.h":
        [(re.compile(r"enum\s+class\s+\[\[nodiscard\]\]\s+WireError\b"),
          "WireError"),
         (re.compile(r"class\s+\[\[nodiscard\]\]\s+Untrusted\b"),
          "Untrusted<T>")],
    "src/net/frame.h":
        [(re.compile(r"enum\s+class\s+\[\[nodiscard\]\]\s+FrameDecodeError\b"),
          "FrameDecodeError")],
}

DECLASSIFY = re.compile(r"\.Declassify\s*\(\)")
DECLASSIFY_REASON = re.compile(r"//\s*declassify:")
UNTRUSTED = re.compile(r"\.(?:Unvalidated|ReleaseUnvalidated)\s*\(\)")
UNTRUSTED_REASON = re.compile(r"//\s*untrusted-ok:")
# How many preceding lines may carry the justification comment (statements
# wrap, so the comment sits above the statement, not the exact line).
UNTRUSTED_WINDOW = 3
DISCARD = re.compile(r"\(void\)\s*[A-Za-z_][\w:]*(?:[.\->\w:]*)\s*\(")
DISCARD_REASON = re.compile(r"//\s*discard-ok:")

# R12: verifier entries, the shared driver, and anchors marking "real
# verification work" that must not run before the freshness gate.
VERIFIER_NAME = re.compile(r"\bVerifyResult\s+(Verify\w*Vo)\s*\(")
VERIFIER_DECL = re.compile(r"\b(Verify\w*Vo)\s*\(\s*const\s+VerifyContext\b")
DRIVER_SIG = re.compile(r"\bVerifyResult\s+(RunVerify)\s*\(")
DRIVER_CALL = re.compile(r"\bRunVerify\s*\(")
GATE_CALL = re.compile(r"\.Unvalidated\s*\(\)")
FRESHNESS_CALL = re.compile(r"\bCheck(?:Freshness|StampFields)\s*\(")
WORK_ANCHOR = re.compile(r"\bSigBatch\b|\.Evaluate\s*\(|\bCheckCoverage|"
                         r"\bFirstFailure\s*\(|"
                         r"\bAbs::Verify\s*\(|\bwalk\s*\(")

# R13: fatal client statuses that must be returned, not retried.
FATAL_STATUS = re.compile(
    r"status\s*=\s*ClientStatus::k(?:VerifyRejected|ServerRejected)\b")
RETURN_STMT = re.compile(r"\breturn\b")
RETRY_WINDOW = 5


def strip_comments_and_strings(line):
    """Removes // comments and string/char literal contents (keeps quotes)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            if i < n:
                out.append(quote)
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def source_files(roots):
    for root in roots:
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".h", ".cc", ".cpp")):
                    yield os.path.join(dirpath, name)


def function_bodies(text, signature):
    """Yields (match, body) per `signature` match; body is None for a
    declaration (no `{` after the parameter list)."""
    for m in signature.finditer(text):
        i = text.find("(", m.end() - 1)
        depth, n = 0, len(text)
        while i < n:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        i += 1
        while i < n and text[i] in " \t\r\n":
            i += 1
        if i >= n or text[i] != "{":
            yield m, None
            continue
        start, depth = i, 0
        while i < n:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        yield m, text[start:i]


def check_freshness_first(rel, stripped_lines, result):
    """R12 (per file): verifier bodies route through RunVerify before any
    work; the RunVerify body gates on CheckFreshness before any work.
    Records declared/checked names for the cross-file coverage check."""
    violations = result["violations"]
    text = "\n".join(stripped_lines)

    def lineno(m):
        return text.count("\n", 0, m.start()) + 1

    for m in VERIFIER_DECL.finditer(text):
        result["r12_declared"].append((rel, lineno(m), m.group(1)))
    for m, body in function_bodies(text, VERIFIER_NAME):
        name = m.group(1)
        result["r12_declared"].append((rel, lineno(m), name))
        if body is None:
            continue
        work = WORK_ANCHOR.search(body)
        if work is None and GATE_CALL.search(body):
            continue  # Untrusted<> declassification gate: one-line delegate
        result["r12_checked"].append((rel, lineno(m), name))
        driver = DRIVER_CALL.search(body)
        if driver is None or (work is not None and
                              work.start() < driver.start()):
            violations.append(
                (rel, lineno(m), "R12",
                 f"{name}: verification work outside (or before) the "
                 "RunVerify driver — its freshness gate must run first, so "
                 "a replayed VO fails kStaleEpoch", name))
    for m, body in function_bodies(text, DRIVER_SIG):
        if body is None:
            continue
        result["r12_driver"].append((rel, lineno(m), "RunVerify"))
        fresh = FRESHNESS_CALL.search(body)
        work = WORK_ANCHOR.search(body)
        if fresh is None or (work is not None and
                             work.start() < fresh.start()):
            violations.append(
                (rel, lineno(m), "R12",
                 "RunVerify: structural walk or signature batch before (or "
                 "without) the CheckStampFields freshness gate", "RunVerify"))


def check_r12_coverage(merged, require_driver=True):
    """R12 non-vacuity: every declared Verify*Vo entry has a body R12
    checked, and (tree-wide) the driver body was found and checked.
    Returns the number of verifier bodies checked."""
    checked = {name for _, _, name in merged["r12_checked"]}
    missing = {}
    for rel, lineno, name in merged["r12_declared"]:
        if name not in checked:
            missing.setdefault(name, (rel, lineno))
    for name, (rel, lineno) in sorted(missing.items()):
        merged["violations"].append(
            (rel, lineno, "R12",
             f"{name}: declared verifier entry whose body R12 does not "
             "recognize — the freshness-first check would be vacuous for "
             "it", name))
    if require_driver and merged["r12_declared"] and not merged["r12_driver"]:
        merged["violations"].append(
            ("src/core/parallel_verify.h", 1, "R12",
             "RunVerify driver body not found — the freshness-first check "
             "has nothing to anchor on", "RunVerify"))
    return len(checked)


def check_retry_taxonomy(rel, raw_lines, stripped_lines, violations):
    """R13: fatal statuses return immediately; error taxonomy stays fatal."""
    if rel == "src/net/client.cc":
        for idx, line in enumerate(stripped_lines):
            if not FATAL_STATUS.search(line):
                continue
            window = stripped_lines[idx + 1:idx + 1 + RETRY_WINDOW]
            if not any(RETURN_STMT.search(w) for w in window):
                violations.append(
                    (rel, idx + 1, "R13",
                     "kVerifyRejected/kServerRejected must return "
                     "immediately — retrying a fatal verdict turns a "
                     "malicious SP into a retry storm",
                     raw_lines[idx].strip()))
    if rel == "src/net/frame.cc":
        text = "\n".join(stripped_lines)
        m = re.search(r"bool\s+RpcErrorRetryable[^{]*\{(.*?)\n\}", text,
                      re.DOTALL)
        if m:
            body = m.group(1)
            true_pos = body.find("return true;")
            for code in ("kBadRequest", "kInternal"):
                case_pos = body.find("case RpcErrorCode::" + code)
                if case_pos != -1 and (true_pos == -1 or case_pos < true_pos):
                    lineno = text.count("\n", 0, m.start()) + 1
                    violations.append(
                        (rel, lineno, "R13",
                         f"RpcErrorCode::{code} grouped with the retryable "
                         "codes — the client would retry a request the "
                         "server already ruled broken", code))


def lint_file(rel, raw_lines, result):
    """Lints one file's content; appends into the per-file `result` dict."""
    violations = result["violations"]
    stripped = [strip_comments_and_strings(raw) for raw in raw_lines]
    in_src = rel.startswith("src/")
    for lineno, (raw, code) in enumerate(zip(raw_lines, stripped), 1):
        if in_src:
            for rule, pattern, message, allow, prefixes in RULES:
                if rel in allow:
                    continue
                if prefixes is not None and not rel.startswith(prefixes):
                    continue
                if rule == "R7" and rel.startswith("src/crypto/"):
                    continue
                if pattern.search(code):
                    violations.append((rel, lineno, rule, message,
                                       raw.strip()))
            if DECLASSIFY.search(code):
                prev = raw_lines[lineno - 2] if lineno >= 2 else ""
                justified = bool(DECLASSIFY_REASON.search(raw)
                                 or DECLASSIFY_REASON.search(prev))
                result["declassify"].append((rel, lineno, raw.strip(),
                                             justified))
            if UNTRUSTED.search(code):
                above = raw_lines[max(0, lineno - 1 - UNTRUSTED_WINDOW):
                                  lineno - 1]
                justified = bool(
                    UNTRUSTED_REASON.search(raw)
                    or any(UNTRUSTED_REASON.search(a) for a in above))
                result["untrusted"].append((rel, lineno, raw.strip(),
                                            justified))
        if DISCARD.search(code):
            above = raw_lines[max(0, lineno - 1 - UNTRUSTED_WINDOW):
                              lineno - 1]
            justified = bool(
                DISCARD_REASON.search(raw)
                or any(DISCARD_REASON.search(a) for a in above))
            result["discards"].append((rel, lineno, raw.strip(), justified))
    if in_src:
        text = "\n".join(raw_lines)
        for pattern, name in NODISCARD_MARKERS.get(rel, []):
            if not pattern.search(text):
                violations.append(
                    (rel, 1, "R9",
                     f"type-level [[nodiscard]] marker on {name} is gone — "
                     "dropped verdicts would compile again", name))
        check_freshness_first(rel, stripped, result)
        check_retry_taxonomy(rel, raw_lines, stripped, violations)


def empty_result():
    return {"violations": [], "declassify": [], "untrusted": [],
            "discards": [], "r12_declared": [], "r12_checked": [],
            "r12_driver": []}


def lint_path(path, rel):
    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()
    result = empty_result()
    lint_file(rel, raw_lines, result)
    return result


def load_cache(lint_hash):
    try:
        with open(CACHE_PATH, encoding="utf-8") as f:
            cache = json.load(f)
        if cache.get("lint_hash") == lint_hash:
            return cache.get("files", {})
    except (OSError, ValueError):
        pass
    return {}


def save_cache(lint_hash, files):
    try:
        os.makedirs(os.path.dirname(CACHE_PATH), exist_ok=True)
        with open(CACHE_PATH, "w", encoding="utf-8") as f:
            json.dump({"lint_hash": lint_hash, "files": files}, f)
    except OSError:
        pass  # a missing cache only costs the next run a full scan


def run_tree(use_cache):
    with open(os.path.abspath(__file__), "rb") as f:
        lint_hash = hashlib.sha256(f.read()).hexdigest()
    cached = load_cache(lint_hash) if use_cache else {}
    files, merged, count = {}, empty_result(), 0
    for path in source_files(AUDIT_ROOTS):
        rel = os.path.relpath(path, REPO)
        count += 1
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        entry = cached.get(rel)
        if entry is None or entry.get("hash") != digest:
            result = lint_path(path, rel)
            entry = {"hash": digest, "result": result}
        files[rel] = entry
        for key in merged:
            merged[key].extend(tuple(item) for item in entry["result"][key])
    if use_cache:
        save_cache(lint_hash, files)
    return merged, count


def print_audit(title, sites, empty_note):
    print(f"# {title}")
    if not sites:
        print(empty_note)
    for rel, lineno, text, justified in sites:
        mark = "ok " if justified else "BAD"
        print(f"{mark} {rel}:{lineno}: {text}")


def report(merged):
    failed = False
    for rel, lineno, rule, message, text in merged["violations"]:
        print(f"{rel}:{lineno}: [{rule}] {message}\n    {text}",
              file=sys.stderr)
        failed = True
    audits = [
        ("declassify", "R6", "Declassify() without a "
         "'// declassify: <reason>' comment"),
        ("untrusted", "R8", "Unvalidated() without an "
         "'// untrusted-ok: <reason>' comment"),
        ("discards", "R11", "(void) discard without a "
         "'// discard-ok: <reason>' comment"),
    ]
    for key, rule, message in audits:
        for rel, lineno, text, justified in merged[key]:
            if not justified:
                print(f"{rel}:{lineno}: [{rule}] {message}\n    {text}",
                      file=sys.stderr)
                failed = True
    return failed


def fired_rules(merged):
    rules = {v[2] for v in merged["violations"]}
    for key, rule in (("declassify", "R6"), ("untrusted", "R8"),
                      ("discards", "R11")):
        if any(not justified for _, _, _, justified in merged[key]):
            rules.add(rule)
    return rules


def self_test():
    """Each fixture must trip exactly the rule it seeds (HEAD stays clean)."""
    fixtures = sorted(
        f for f in os.listdir(FIXTURES) if f.endswith((".cc", ".h")))
    if not fixtures:
        print("lint --self-test: no fixtures found", file=sys.stderr)
        return 1
    failed = False
    for name in fixtures:
        path = os.path.join(FIXTURES, name)
        with open(path, encoding="utf-8") as f:
            raw_lines = f.read().splitlines()
        expect = pretend = None
        for line in raw_lines[:5]:
            m = re.match(r"//\s*lint-fixture-expect:\s*(\S+)", line)
            if m:
                expect = m.group(1)
            m = re.match(r"//\s*lint-fixture-path:\s*(\S+)", line)
            if m:
                pretend = m.group(1)
        if expect is None or pretend is None:
            print(f"lint --self-test: {name} lacks lint-fixture-expect/"
                  "lint-fixture-path headers", file=sys.stderr)
            failed = True
            continue
        merged = empty_result()
        lint_file(pretend, raw_lines, merged)
        check_r12_coverage(merged, require_driver=False)
        fired = fired_rules(merged)
        if expect not in fired:
            print(f"lint --self-test: {name} (as {pretend}) expected {expect}"
                  f" to fire; got {sorted(fired) or 'nothing'}",
                  file=sys.stderr)
            failed = True
    if failed:
        return 1
    print(f"lint --self-test: OK ({len(fixtures)} seeded violations "
          "each caught)")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    use_cache = "--no-cache" not in argv
    list_mode = None
    for flag, key, title, note in (
            ("--list-declassify", "declassify",
             "Declassification audit (src/)", "no Declassify() call sites"),
            ("--list-untrusted", "untrusted",
             "Wire-taint escape audit (src/)", "no Unvalidated() call sites"),
            ("--list-discards", "discards",
             "(void)-discard audit (src/, tests/, bench/, examples/)",
             "no (void) call discards")):
        if flag in argv:
            list_mode = (key, title, note)
    merged, count = run_tree(use_cache and list_mode is None)
    check_durable_allowlist(merged["violations"])
    r12_bodies = check_r12_coverage(merged)
    if list_mode is not None:
        key, title, note = list_mode
        print_audit(title, merged[key], note)
        return 0
    if report(merged):
        return 1
    print(f"lint: OK ({count} files; R12 checked {r12_bodies} verifier "
          "bodies)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
