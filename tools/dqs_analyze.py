#!/usr/bin/env python3
"""dqs_analyze — C++-aware static analysis for the dqsched tree.

One analyzer, one marker syntax, one findings format. Runs as the
`dqs_analyze` ctest (full rule set). Unlike the line-regex linter it
replaced, it works on a token stream from a real C++ lexer (comments
and string literals can never produce findings, member calls are
distinguished from free calls and declarations) and on a cross-file
include graph (layer violations and include cycles are graph properties,
not line patterns).

Rule families
-------------
layer DAG (tree-wide, from the include graph):
  layer-dag        src/ subdirectories form the layer DAG
                       common -> {sim, storage} -> {comm, wrapper}
                              -> {plan, exec} -> core
                   A quoted include whose target's layer rank is higher
                   than the including file's rank is an upward edge and is
                   reported as such; the file-level include graph must
                   also be acyclic (the shortest cycle is reported).
                   Within-layer sibling edges (e.g. comm <-> wrapper) are
                   legal as long as no file-level cycle exists.

determinism contract (DESIGN §11 — non-wall ExecutionMetrics fields must
be byte-identical across --jobs, strategies, and kernels):
  wall-clock       wall-clock reads (std::chrono steady/system/
                   high_resolution clocks, time(), clock(), gettimeofday,
                   clock_gettime, and the <chrono>/<ctime> includes that
                   supply them) are banned everywhere except the blessed
                   helper src/common/host_clock.h.
  unordered-iter   iteration over std::unordered_{map,set,multimap,
                   multiset} variables (range-for, .begin()/.cbegin(),
                   .equal_range() walks): hash iteration order must never
                   escape into metrics, plan order, or output. Use sorted
                   (std::map) or vector-indexed containers instead.
  rng              all randomness comes from the seeded streams in
                   src/common/random.*; std RNG engines (mt19937, ...),
                   std::random_device, rand()/srand(), and <random> are
                   banned outside those files.

charge order (DESIGN §10 — every simulated charge is a pure function of
canonical-order cardinalities):
  charge-order     the charge-mutating calls (SimClock Advance/BusyUntil/
                   StallUntil, ExecContext::ChargeInstr, NetworkModel
                   ChargeReceive/ChargeSend) may appear only in the
                   blessed files that own the charge discipline; a new
                   call site anywhere else needs a review and an explicit
                   entry in CHARGE_BLESSED.

shard affinity (DESIGN §12 — the admission-control MemoryBroker is the
fleet's only cross-shard mutable state):
  shard-affinity   the broker API (its header and the MemoryBroker class
                   name) may appear only in core/memory_broker.* and
                   core/fleet_executor.*; any other src/ file taking a
                   broker dependency would couple shards outside the
                   arbitration barrier and break the jobs-invariance
                   argument.

breaker affinity (DESIGN §13 — circuit breakers are lifecycle policy,
confined to the layers that own it):
  breaker-affinity the breaker API (core/circuit_breaker.h and the
                   CircuitBreaker / BreakerPanel names) may appear only
                   under core/ and comm/; a wrapper or storage file
                   consulting a breaker would smuggle admission policy
                   into mechanism code and couple layers the DAG keeps
                   apart.

cache affinity (DESIGN §14 — the result cache touches the scheduler at
exactly two reviewed points):
  cache-affinity   the cache API (storage/result_cache.h,
                   core/cache_manager.h, and the ResultCache /
                   CacheManager names) may appear only in the cache
                   files themselves and the blessed integration sites
                   (dqs, shared loop, execution state, the engine core,
                   and the three drivers); a new consumer anywhere else
                   would add an unreviewed hit point and erode the
                   off-vs-cold byte-identity argument.

conventions (ported from the old regex linter, same semantics):
  guard            include guards are DQSCHED_<REL_PATH>_H_ with a
                   matching `#endif  // ...` trailer
  own-header       every src/**/*.cc with a sibling header includes it
                   first
  nodiscard        common/status.h keeps [[nodiscard]] on Status/Result
  check-on-input   no DQS_CHECK inside Parse*/TryParse*/Validate* bodies
  raw-abort        no abort()/exit() outside common/macros.h
  using-std        no `using namespace std`
  kernel-push      no per-tuple push_back/emplace_back/Add in src/exec
                   outside blessed expansion helpers
  timeout-type     duration-named header fields are SimDuration, not
                   naked integers
  ancestors-index  no CompiledPlan::Ancestors() outside src/plan

Suppression
-----------
A finding on line L of rule R is suppressed when a comment marker covers
that line:

    code;  // dqs-analyze: allow(R) optional rationale
    // dqs-analyze: begin-allow(R) — rationale
    ...block...
    // dqs-analyze: end-allow(R)

Markers naming an unknown rule, and unbalanced begin/end pairs, are
themselves findings (rule `marker`) so typos cannot silently disable a
check.

Output: `path:line: [rule] message`, one line per finding; exit 0 when
clean, 1 otherwise. `--self-test tests/analyze_fixtures` runs the
golden-finding fixture suite.
"""

import argparse
import sys
from collections import deque
from pathlib import Path

# --------------------------------------------------------------------------
# Configuration: the layer DAG and the blessed-file sets.
# --------------------------------------------------------------------------

# Layer ranks. An include edge from directory A to directory B is upward
# (banned) iff rank[B] > rank[A]. Same-rank sibling edges are legal; the
# file-level cycle check keeps them (and everything else) acyclic.
LAYER_RANK = {
    "common": 0,
    "sim": 1,
    "storage": 1,
    "comm": 2,
    "wrapper": 2,
    "plan": 3,
    "exec": 3,
    "core": 4,
}

LAYER_DIAGRAM = "common -> {sim,storage} -> {comm,wrapper} -> {plan,exec} -> core"

# The one file allowed to read host wall clocks (DESIGN §11).
WALL_CLOCK_BLESSED = {"common/host_clock.h"}

# The files allowed to construct raw RNG state (everything else forks a
# seeded dqsched::Rng stream).
RNG_BLESSED_PREFIX = "common/random"

# Owners of the canonical-charge discipline (DESIGN §10): the only files
# that may invoke the charge-mutating members. Adding a file here is a
# reviewed event — the new site must derive its charge from canonical-order
# cardinalities, never from host evaluation order.
CHARGE_BLESSED = {
    "sim/sim_clock.h",       # defines Advance/BusyUntil/StallUntil
    "sim/network.h",         # declares ChargeReceive
    "sim/network.cc",        # defines ChargeReceive
    "exec/exec_context.h",   # ChargeInstr = the one instr->clock bridge
    "exec/operand.cc",       # operand build/open charges
    "exec/chain_executor.cc",  # the fragment kernels
    "storage/temp_store.cc",   # per-I/O CPU + synchronous waits
    "core/dqp.cc",           # phase-boundary stalls
    "core/dphj.cc",          # the DPHJ comparison executor
    "core/multi_query.cc",   # shared-loop stalls
    "core/fleet_executor.cc",  # fleet shard stalls at grant boundaries
}

# Owners of the fleet's cross-shard state (DESIGN §12): the broker itself
# and the coordinator that arbitrates at the round barrier. Any other
# file naming the broker couples shards outside the barrier.
BROKER_BLESSED_PREFIXES = ("core/memory_broker", "core/fleet_executor")

# Layers allowed to consult the circuit breakers (DESIGN §13): lifecycle
# policy lives in core/, and comm/ surfaces the detector events that
# feed it. A wrapper or storage component naming a breaker would smuggle
# admission policy into mechanism code.
BREAKER_BLESSED_PREFIXES = ("core/", "comm/")
BREAKER_NAMES = {"CircuitBreaker", "BreakerPanel"}

# Owners and reviewed consumers of the result cache (DESIGN §14): the
# mechanism (storage/result_cache.*), the policy (core/cache_manager.*),
# and the blessed integration sites — the two scheduler touchpoints
# (plan-time segment hits in dqs.cc, result-digest hits via the shared
# loop / execution state), the engine core whose shared config carries
# the CacheConfig, and the two drivers that own a CacheManager's
# lifetime (the single-query mediator has no cache). Any other file taking a cache dependency would add an
# unreviewed hit point outside the epoch-gating argument.
CACHE_BLESSED = {
    "storage/result_cache.h", "storage/result_cache.cc",
    "core/cache_manager.h", "core/cache_manager.cc",
    "core/dqs.cc",
    "core/execution_state.h",
    "core/shared_loop.h",
    "core/engine.h",
    "core/multi_query.h", "core/multi_query.cc",
    "core/fleet_executor.h", "core/fleet_executor.cc",
}
CACHE_HEADERS = {"storage/result_cache.h", "core/cache_manager.h"}
CACHE_NAMES = {"ResultCache", "CacheManager"}

CHARGE_METHODS = {
    "Advance", "AdvanceTo", "BusyUntil", "StallUntil",
    "ChargeInstr", "ChargeReceive", "ChargeSend",
}

WALL_CLOCK_TYPES = {"steady_clock", "system_clock", "high_resolution_clock"}
WALL_CLOCK_CALLS = {
    "time", "clock", "gettimeofday", "clock_gettime", "timespec_get",
    "localtime", "gmtime", "mktime", "ftime",
}
WALL_CLOCK_INCLUDES = {"chrono", "ctime", "time.h", "sys/time.h"}

RNG_ENGINE_TYPES = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "random_device", "ranlux24", "ranlux48",
    "knuth_b", "subtract_with_carry_engine", "mersenne_twister_engine",
    "linear_congruential_engine",
}
RNG_CALLS = {"rand", "srand", "random", "srandom", "drand48", "lrand48",
             "mrand48", "rand_r"}
RNG_INCLUDES = {"random", "cstdlib"}  # cstdlib only flagged via rand() use

UNORDERED_CONTAINERS = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}

INT_TYPE_TOKENS = {
    "int", "long", "unsigned", "short", "size_t", "ssize_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
}
DURATION_WORDS = ("timeout", "deadline", "cooldown", "silence", "backoff",
                  "stall")

MARKER_PREFIX = "dqs-analyze:"

# --------------------------------------------------------------------------
# Lexer.
# --------------------------------------------------------------------------


class Token:
    """One C++ token: kind in {id, num, str, char, punct, pp}."""

    __slots__ = ("kind", "value", "line")

    def __init__(self, kind, value, line):
        self.kind = kind
        self.value = value
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Token({self.kind!r}, {self.value!r}, L{self.line})"


_MULTI_PUNCT = (
    "...", "->*", "<<=", ">>=",
    "::", "->", "++", "--", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
)
# NOTE: `<` and `>` are always single tokens (so template argument lists
# can be brace-matched without the C++ `>>` ambiguity), and `<<`/`>>` are
# likewise left as two tokens.

_ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CONT = _ID_START | set("0123456789")
_RAW_PREFIXES = {"R", "u8R", "uR", "LR"}


def tokenize(text):
    """Lexes C++ source into tokens. Comments are skipped (they can never
    match a rule); preprocessor directives become single `pp` tokens
    (continuation lines folded in). Best-effort on purpose: the analyzer
    needs token *shapes*, not a full grammar."""
    tokens = []
    i, n = 0, len(text)
    line = 1
    at_line_start = True
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            line += text.count("\n", i, j)
            i = j
            at_line_start = False
            continue
        if ch == "#" and at_line_start:
            # Preprocessor directive; fold backslash continuations.
            start, start_line = i, line
            while i < n:
                j = text.find("\n", i)
                if j == -1:
                    i = n
                    break
                # A trailing backslash continues the directive.
                k = j - 1
                while k >= 0 and text[k] in " \t\r":
                    k -= 1
                if k >= 0 and text[k] == "\\":
                    line += 1
                    i = j + 1
                    continue
                i = j
                break
            tokens.append(Token("pp", text[start:i], start_line))
            at_line_start = False
            continue
        at_line_start = False
        if ch == '"':
            i, line = _scan_string(text, i, line, '"')
            tokens.append(Token("str", '""', line))
            continue
        if ch == "'":
            i, line = _scan_string(text, i, line, "'")
            tokens.append(Token("char", "''", line))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < n and (text[i] in _ID_CONT or text[i] in ".'"
                             or (text[i] in "+-" and text[i - 1] in "eEpP")):
                i += 1
            tokens.append(Token("num", text[start:i], line))
            continue
        if ch in _ID_START:
            start = i
            i += 1
            while i < n and text[i] in _ID_CONT:
                i += 1
            word = text[start:i]
            if word in _RAW_PREFIXES and i < n and text[i] == '"':
                i, line = _scan_raw_string(text, i, line)
                tokens.append(Token("str", '""', line))
                continue
            tokens.append(Token("id", word, line))
            continue
        matched = False
        for p in _MULTI_PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                matched = True
                break
        if not matched:
            tokens.append(Token("punct", ch, line))
            i += 1
    return tokens


def _scan_string(text, i, line, quote):
    """Scans a quoted literal starting at text[i] == quote; returns the
    index just past the closing quote."""
    n = len(text)
    i += 1
    while i < n:
        ch = text[i]
        if ch == "\\":
            i += 2
            continue
        if ch == "\n":  # unterminated; tolerate and resync
            return i, line
        if ch == quote:
            return i + 1, line
        i += 1
    return i, line


def _scan_raw_string(text, i, line):
    """Scans R"delim( ... )delim" with text[i] == '"'."""
    n = len(text)
    j = text.find("(", i + 1)
    if j == -1:
        return n, line
    delim = text[i + 1:j]
    close = ")" + delim + '"'
    k = text.find(close, j + 1)
    if k == -1:
        return n, line
    line += text.count("\n", i, k)
    return k + len(close), line


# --------------------------------------------------------------------------
# Source files, includes, suppression markers.
# --------------------------------------------------------------------------


class SourceFile:
    """One lexed file plus its include edges and suppression spans."""

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel  # posix path relative to src/
        self.text = text
        self.lines = text.splitlines()
        self.tokens = tokenize(text)
        self.quoted_includes = []  # [(line, target)]
        self.angle_includes = []   # [(line, target)]
        for tok in self.tokens:
            if tok.kind != "pp":
                continue
            body = tok.value.lstrip("#").strip()
            if not body.startswith("include"):
                continue
            arg = body[len("include"):].strip()
            if arg.startswith('"') and arg.count('"') >= 2:
                self.quoted_includes.append(
                    (tok.line, arg[1:arg.index('"', 1)]))
            elif arg.startswith("<") and ">" in arg:
                self.angle_includes.append(
                    (tok.line, arg[1:arg.index(">")]))
        self._allow = {}          # rule -> set of 0-based line indexes
        self.marker_errors = []   # [(line, message)]
        self._scan_markers()

    def _scan_markers(self):
        self._open_blocks = {}  # rule -> [start line indexes]
        for idx, raw in enumerate(self.lines):
            pos = raw.find(MARKER_PREFIX)
            if pos == -1:
                continue
            directive = raw[pos + len(MARKER_PREFIX):].strip()
            for verb in ("begin-allow", "end-allow", "allow"):
                if directive.startswith(verb + "("):
                    close = directive.find(")", len(verb) + 1)
                    if close == -1:
                        self.marker_errors.append(
                            (idx + 1, "unclosed marker: missing `)`"))
                        break
                    rule_name = directive[len(verb) + 1:close].strip()
                    self._apply_marker(verb, rule_name, idx)
                    break
            else:
                self.marker_errors.append(
                    (idx + 1,
                     "unrecognized marker; use allow(<rule>), "
                     "begin-allow(<rule>), or end-allow(<rule>)"))
        # Unclosed begin-allow blocks suppress nothing past EOF — flag them.
        for rule_name, starts in self._open_blocks.items():
            for start in starts:
                self.marker_errors.append(
                    (start + 1,
                     f"begin-allow({rule_name}) never closed by "
                     f"end-allow({rule_name})"))

    def _apply_marker(self, verb, rule_name, idx):
        if rule_name not in RULES and rule_name != "marker":
            self.marker_errors.append(
                (idx + 1, f"marker names unknown rule `{rule_name}`"))
            return
        allowed = self._allow.setdefault(rule_name, set())
        if verb == "allow":
            allowed.add(idx)
        elif verb == "begin-allow":
            self._open_blocks.setdefault(rule_name, []).append(idx)
        else:  # end-allow
            starts = self._open_blocks.get(rule_name) or []
            if not starts:
                self.marker_errors.append(
                    (idx + 1,
                     f"end-allow({rule_name}) without a matching "
                     f"begin-allow({rule_name})"))
                return
            start = starts.pop()
            allowed.update(range(start, idx + 1))

    def allowed(self, rule_name, line):
        """True when 1-based `line` is covered by an allow marker."""
        return (line - 1) in self._allow.get(rule_name, ())


# --------------------------------------------------------------------------
# Rule registry and the analyzer driver.
# --------------------------------------------------------------------------

RULES = {}  # name -> (scope, fn); scope in {"file", "tree"}


def rule(name, scope):
    def wrap(fn):
        RULES[name] = (scope, fn)
        return fn
    return wrap


class Analyzer:
    def __init__(self, root, rules=None):
        self.root = Path(root).resolve()
        self.src = self.root / "src"
        self.rules = set(rules) if rules else set(RULES)
        # `marker` is always-on infrastructure but may be named in --rules
        # (e.g. by fixtures that test only the marker hygiene itself).
        unknown = self.rules - set(RULES) - {"marker"}
        if unknown:
            raise ValueError(f"unknown rules: {sorted(unknown)}")
        self.files = []
        self.by_rel = {}
        self.findings = []  # [(rel, line, rule, message)]

    def load(self):
        paths = sorted(self.src.rglob("*.h")) + sorted(self.src.rglob("*.cc"))
        for path in paths:
            rel = path.relative_to(self.src).as_posix()
            f = SourceFile(path, rel, path.read_text())
            self.files.append(f)
            self.by_rel[rel] = f

    def emit(self, f, line, rule_name, message):
        if f is not None and f.allowed(rule_name, line):
            return
        rel = f.rel if f is not None else "<tree>"
        self.findings.append((rel, line, rule_name, message))

    def run(self):
        self.load()
        # Marker hygiene runs unconditionally: a broken marker can disable
        # any rule, so it is never filtered out by --rules.
        for f in self.files:
            for line, msg in f.marker_errors:
                self.findings.append((f.rel, line, "marker", msg))
        for name in sorted(self.rules & set(RULES)):
            scope, fn = RULES[name]
            if scope == "tree":
                fn(self)
            else:
                for f in self.files:
                    fn(self, f)
        self.findings.sort()
        return self.findings


# --------------------------------------------------------------------------
# Token-stream helpers.
# --------------------------------------------------------------------------


def is_free_call(tokens, i):
    """True when tokens[i] (an identifier followed by `(`) is a free call:
    not a member access, not `Qualifier::` other than std::, and not a
    declaration like `SimDuration time(...)`."""
    prev = tokens[i - 1] if i > 0 else None
    if prev is None:
        return True
    if prev.kind == "punct" and prev.value in (".", "->"):
        return False
    if prev.kind == "punct" and prev.value == "::":
        qual = tokens[i - 2] if i >= 2 else None
        return qual is not None and qual.kind == "id" and qual.value == "std"
    if prev.kind == "id":
        return False
    return True


def is_member_call(tokens, i):
    """True when tokens[i] is an identifier invoked as `.name(`/`->name(`."""
    if i == 0 or i + 1 >= len(tokens):
        return False
    nxt = tokens[i + 1]
    prev = tokens[i - 1]
    return (nxt.kind == "punct" and nxt.value == "("
            and prev.kind == "punct" and prev.value in (".", "->"))


def next_is(tokens, i, value):
    return (i + 1 < len(tokens) and tokens[i + 1].kind == "punct"
            and tokens[i + 1].value == value)


def skip_template_args(tokens, i):
    """With tokens[i] == `<`, returns the index just past the matching `>`
    (or len(tokens) if unbalanced)."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.value == "<":
                depth += 1
            elif t.value == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t.value in (";", "{", "}"):
                return i  # malformed; bail
        i += 1
    return n


def matching_paren(tokens, i):
    """With tokens[i] == `(`, returns the index of the matching `)`."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.value == "(":
                depth += 1
            elif t.value == ")":
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n - 1


def matching_brace(tokens, i):
    """With tokens[i] == `{`, returns the index of the matching `}`."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.value == "{":
                depth += 1
            elif t.value == "}":
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n - 1


def top_dir(rel):
    return rel.split("/", 1)[0] if "/" in rel else ""


# --------------------------------------------------------------------------
# Layer-DAG rules.
# --------------------------------------------------------------------------


@rule("layer-dag", "tree")
def check_layer_dag(an):
    # Upward edges by layer rank.
    for f in an.files:
        d = top_dir(f.rel)
        if d not in LAYER_RANK:
            continue
        for line, target in f.quoted_includes:
            td = top_dir(target)
            if td in LAYER_RANK and LAYER_RANK[td] > LAYER_RANK[d]:
                an.emit(
                    f, line, "layer-dag",
                    f"upward include edge src/{d} -> src/{td} "
                    f"(rank {LAYER_RANK[d]} -> {LAYER_RANK[td]}) violates "
                    f"the layer DAG {LAYER_DIAGRAM}")
    # File-level include cycles (shortest cycle per strongly connected
    # component, reported once at its lexicographically-first file).
    graph = {}
    for f in an.files:
        graph[f.rel] = sorted({t for _, t in f.quoted_includes
                               if t in an.by_rel})
    for comp in _tarjan_sccs(graph):
        nodes = set(comp)
        start = min(comp)
        if len(comp) == 1 and start not in graph.get(start, ()):
            continue  # trivial SCC, no self-loop
        cycle = _shortest_cycle(graph, nodes, start)
        f = an.by_rel[start]
        line = next((ln for ln, t in f.quoted_includes if t == cycle[1]), 1)
        an.emit(f, line, "layer-dag",
                "include cycle: " + " -> ".join(cycle))


def _tarjan_sccs(graph):
    """Iterative Tarjan; yields strongly connected components."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = [0]
    sccs = []
    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(graph.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(graph.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.append(top)
                    if top == node:
                        break
                sccs.append(comp)
    return sccs


def _shortest_cycle(graph, nodes, start):
    """BFS shortest path start -> ... -> start inside `nodes`; returns the
    node list with `start` repeated at the end."""
    prev = {}
    q = deque()
    for nxt in graph.get(start, ()):
        if nxt == start:
            return [start, start]
        if nxt in nodes and nxt not in prev:
            prev[nxt] = start
            q.append(nxt)
    while q:
        cur = q.popleft()
        for nxt in graph.get(cur, ()):
            if nxt == start:
                path = [cur]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                path.reverse()
                path.append(start)
                return path
            if nxt in nodes and nxt not in prev:
                prev[nxt] = cur
                q.append(nxt)
    return [start, start]


# --------------------------------------------------------------------------
# Determinism-contract rules.
# --------------------------------------------------------------------------


@rule("wall-clock", "file")
def check_wall_clock(an, f):
    if f.rel in WALL_CLOCK_BLESSED:
        return
    for line, target in f.angle_includes:
        if target in WALL_CLOCK_INCLUDES:
            an.emit(f, line, "wall-clock",
                    f"#include <{target}> outside common/host_clock.h; "
                    "read host time through HostClock")
    tokens = f.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        if tok.value in WALL_CLOCK_TYPES:
            an.emit(f, tok.line, "wall-clock",
                    f"wall-clock read `{tok.value}` outside "
                    "common/host_clock.h; use HostClock::Now()")
        elif (tok.value in WALL_CLOCK_CALLS and next_is(tokens, i, "(")
              and is_free_call(tokens, i)):
            an.emit(f, tok.line, "wall-clock",
                    f"wall-clock call `{tok.value}()` outside "
                    "common/host_clock.h; use HostClock::Now()")


def _unordered_vars(tokens):
    """Names of variables declared with an unordered container type."""
    names = set()
    i, n = 0, len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind == "id" and tok.value in UNORDERED_CONTAINERS:
            j = i + 1
            if j < n and tokens[j].kind == "punct" and tokens[j].value == "<":
                j = skip_template_args(tokens, j)
            while j < n and (
                    (tokens[j].kind == "punct" and tokens[j].value in "&*")
                    or (tokens[j].kind == "id" and tokens[j].value == "const")):
                j += 1
            if j < n and tokens[j].kind == "id":
                names.add(tokens[j].value)
            i = j
            continue
        i += 1
    return names


@rule("unordered-iter", "file")
def check_unordered_iter(an, f):
    tokens = f.tokens
    hashed = _unordered_vars(tokens)
    if not hashed:
        return
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        # Range-for whose range expression mentions a hashed variable.
        if tok.value == "for" and next_is(tokens, i, "("):
            close = matching_paren(tokens, i + 1)
            colon = None
            depth = 0
            for k in range(i + 2, close):
                t = tokens[k]
                if t.kind == "punct":
                    if t.value in "([{":
                        depth += 1
                    elif t.value in ")]}":
                        depth -= 1
                    elif t.value == ":" and depth == 0:
                        colon = k
                        break
            if colon is None:
                continue
            ranged = [tokens[k].value for k in range(colon + 1, close)
                      if tokens[k].kind == "id"]
            bad = sorted(hashed.intersection(ranged))
            if bad:
                an.emit(f, tok.line, "unordered-iter",
                        f"range-for over unordered container `{bad[0]}`: "
                        "hash iteration order is not deterministic; use a "
                        "sorted or vector-indexed container")
        # Explicit iterator walks: var.begin() / var.equal_range() etc.
        elif (tok.value in ("begin", "cbegin", "rbegin", "equal_range")
              and is_member_call(tokens, i) and i >= 2
              and tokens[i - 2].kind == "id"
              and tokens[i - 2].value in hashed):
            an.emit(f, tok.line, "unordered-iter",
                    f"`{tokens[i - 2].value}.{tok.value}()` iterates an "
                    "unordered container: hash order is not deterministic; "
                    "use a sorted or vector-indexed container")


@rule("rng", "file")
def check_rng(an, f):
    if f.rel.startswith(RNG_BLESSED_PREFIX):
        return
    for line, target in f.angle_includes:
        if target == "random":
            an.emit(f, line, "rng",
                    "#include <random> outside common/random.*; draw from "
                    "a seeded dqsched::Rng stream")
    tokens = f.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        if tok.value in RNG_ENGINE_TYPES:
            an.emit(f, tok.line, "rng",
                    f"raw RNG `{tok.value}` outside common/random.*; all "
                    "randomness must come from seeded dqsched::Rng streams")
        elif (tok.value in RNG_CALLS and next_is(tokens, i, "(")
              and is_free_call(tokens, i)):
            an.emit(f, tok.line, "rng",
                    f"`{tok.value}()` outside common/random.*; all "
                    "randomness must come from seeded dqsched::Rng streams")


# --------------------------------------------------------------------------
# Charge-order rule.
# --------------------------------------------------------------------------


@rule("charge-order", "file")
def check_charge_order(an, f):
    if f.rel in CHARGE_BLESSED:
        return
    tokens = f.tokens
    for i, tok in enumerate(tokens):
        if (tok.kind == "id" and tok.value in CHARGE_METHODS
                and is_member_call(tokens, i)):
            an.emit(f, tok.line, "charge-order",
                    f"charge-mutating call `{tok.value}()` outside the "
                    "blessed charge-discipline files (DESIGN §10); simulated "
                    "charges are derived only from canonical-order "
                    "cardinalities in reviewed sites")


# --------------------------------------------------------------------------
# Shard-affinity rule.
# --------------------------------------------------------------------------


@rule("shard-affinity", "file")
def check_shard_affinity(an, f):
    if f.rel.startswith(BROKER_BLESSED_PREFIXES):
        return
    for line, target in f.quoted_includes:
        if target == "core/memory_broker.h":
            an.emit(f, line, "shard-affinity",
                    '#include "core/memory_broker.h" outside the fleet '
                    "coordinator; the broker is the fleet's only "
                    "cross-shard state (DESIGN §12) and only "
                    "core/memory_broker.* and core/fleet_executor.* may "
                    "depend on it")
    for tok in f.tokens:
        if tok.kind == "id" and tok.value == "MemoryBroker":
            an.emit(f, tok.line, "shard-affinity",
                    "`MemoryBroker` named outside core/memory_broker.* and "
                    "core/fleet_executor.*; shards must stay affine — "
                    "cross-shard coupling goes through the coordinator's "
                    "arbitration barrier (DESIGN §12)")


# --------------------------------------------------------------------------
# Breaker-affinity rule.
# --------------------------------------------------------------------------


@rule("breaker-affinity", "file")
def check_breaker_affinity(an, f):
    if f.rel.startswith(BREAKER_BLESSED_PREFIXES):
        return
    for line, target in f.quoted_includes:
        if target == "core/circuit_breaker.h":
            an.emit(f, line, "breaker-affinity",
                    '#include "core/circuit_breaker.h" outside core/ and '
                    "comm/; breakers are lifecycle *policy* (DESIGN §13) — "
                    "wrapper and storage mechanism code must not consult "
                    "or mutate admission state")
    for tok in f.tokens:
        if tok.kind == "id" and tok.value in BREAKER_NAMES:
            an.emit(f, tok.line, "breaker-affinity",
                    f"`{tok.value}` named outside core/ and comm/; the "
                    "breaker state machine is confined to the lifecycle "
                    "layer (DESIGN §13) so storms and recoveries stay a "
                    "pure function of the virtual event stream")


# --------------------------------------------------------------------------
# Cache-affinity rule.
# --------------------------------------------------------------------------


@rule("cache-affinity", "file")
def check_cache_affinity(an, f):
    if f.rel in CACHE_BLESSED:
        return
    for line, target in f.quoted_includes:
        if target in CACHE_HEADERS:
            an.emit(f, line, "cache-affinity",
                    f'#include "{target}" outside the cache files and '
                    "their blessed integration sites (DESIGN §14); the "
                    "result cache touches the scheduler at exactly two "
                    "reviewed points, and a new consumer would erode the "
                    "off-vs-cold byte-identity argument")
    for tok in f.tokens:
        if tok.kind == "id" and tok.value in CACHE_NAMES:
            an.emit(f, tok.line, "cache-affinity",
                    f"`{tok.value}` named outside the cache files and "
                    "their blessed integration sites (DESIGN §14); cache "
                    "lookups and admissions are confined so epoch gating "
                    "stays the single visibility mechanism")


# --------------------------------------------------------------------------
# Convention rules (ported from the old regex linter onto the shared
# infrastructure).
# --------------------------------------------------------------------------


def _expected_guard(rel):
    stem = "".join(c if c.isalnum() else "_" for c in rel.rsplit(".", 1)[0])
    return f"DQSCHED_{stem.upper()}_H_"


@rule("guard", "file")
def check_guard(an, f):
    if not f.rel.endswith(".h"):
        return
    guard = _expected_guard(f.rel)
    pps = [t for t in f.tokens if t.kind == "pp"]
    ifndef = next((t for t in pps if t.value.lstrip("# ").startswith("ifndef")),
                  None)
    if ifndef is None or ifndef.value.split()[1:2] != [guard]:
        an.emit(f, ifndef.line if ifndef else 1, "guard",
                f"expected `#ifndef {guard}`")
        return
    idx = pps.index(ifndef)
    define = pps[idx + 1] if idx + 1 < len(pps) else None
    if (define is None or not define.value.lstrip("# ").startswith("define")
            or define.value.split()[1:2] != [guard]):
        an.emit(f, ifndef.line + 1, "guard", f"expected `#define {guard}`")
    last_endif = next(
        (i for i in range(len(f.lines) - 1, -1, -1)
         if f.lines[i].startswith("#endif")), None)
    want = f"#endif  // {guard}"
    if last_endif is None or f.lines[last_endif].rstrip() != want:
        an.emit(f, (last_endif or 0) + 1, "guard", f"expected `{want}`")


@rule("own-header", "file")
def check_own_header(an, f):
    if not f.rel.endswith(".cc"):
        return
    header = f.rel[:-3] + ".h"
    if header not in an.by_rel:
        return
    first = None
    for tok in f.tokens:
        if tok.kind == "pp" and tok.value.lstrip("# ").startswith("include"):
            body = tok.value.lstrip("# ")[len("include"):].strip()
            target = body[1:-1] if len(body) >= 2 else ""
            first = (tok.line, target)
            break
    if first is not None and first[1] != header:
        an.emit(f, first[0], "own-header",
                f'first include must be "{header}"')


@rule("nodiscard", "tree")
def check_nodiscard(an):
    f = an.by_rel.get("common/status.h")
    if f is None:
        return
    tokens = f.tokens
    for cls in ("Status", "Result"):
        ok = False
        decl_line = 1
        for i, tok in enumerate(tokens):
            if tok.kind != "id" or tok.value != "class":
                continue
            # class [[nodiscard]] <cls>
            rest = tokens[i + 1:i + 8]
            vals = [t.value for t in rest]
            if vals[:6] == ["[", "[", "nodiscard", "]", "]", cls]:
                ok = True
                break
            if cls in vals[:2]:
                decl_line = tok.line
        if not ok:
            an.emit(f, decl_line, "nodiscard",
                    f"class {cls} must be declared [[nodiscard]]")


_INPUT_PREFIXES = ("TryParse", "Parse", "Validate")


@rule("check-on-input", "file")
def check_on_input(an, f):
    tokens = f.tokens
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        if tok.kind != "id" or tok.value not in ("Status", "Result"):
            i += 1
            continue
        j = i + 1
        if j < n and tokens[j].kind == "punct" and tokens[j].value == "<":
            j = skip_template_args(tokens, j)
        # Optional qualifiers: Name:: ... ending in the function name.
        fname = None
        while (j + 1 < n and tokens[j].kind == "id"
               and tokens[j + 1].kind == "punct"
               and tokens[j + 1].value == "::"):
            j += 2
        if j < n and tokens[j].kind == "id":
            fname = tokens[j].value
            j += 1
        if (fname is None
                or not any(fname.startswith(p) for p in _INPUT_PREFIXES)
                or j >= n or tokens[j].kind != "punct"
                or tokens[j].value != "("):
            i += 1
            continue
        close = matching_paren(tokens, j)
        # Definition (next significant token opens a body), or declaration?
        k = close + 1
        while (k < n and tokens[k].kind == "id"
               and tokens[k].value in ("const", "noexcept", "override",
                                       "final")):
            k += 1
        if k >= n or tokens[k].kind != "punct" or tokens[k].value != "{":
            i = close + 1
            continue
        body_end = matching_brace(tokens, k)
        for b in range(k, body_end):
            t = tokens[b]
            if (t.kind == "id" and t.value in ("DQS_CHECK", "DQS_CHECK_MSG")
                    and next_is(tokens, b, "(")):
                an.emit(f, t.line, "check-on-input",
                        f"DQS_CHECK in {fname}(): return a Status error "
                        "instead of aborting on user input")
        i = body_end + 1


@rule("raw-abort", "file")
def check_raw_abort(an, f):
    if f.rel == "common/macros.h":
        return
    tokens = f.tokens
    for i, tok in enumerate(tokens):
        if (tok.kind == "id" and tok.value in ("abort", "exit", "_Exit")
                and next_is(tokens, i, "(") and is_free_call(tokens, i)):
            an.emit(f, tok.line, "raw-abort",
                    "call DQS_CHECK/DQS_CHECK_MSG (macros.h) instead of "
                    "aborting directly")


@rule("using-std", "file")
def check_using_std(an, f):
    tokens = f.tokens
    for i, tok in enumerate(tokens):
        if (tok.kind == "id" and tok.value == "using" and i + 2 < len(tokens)
                and tokens[i + 1].kind == "id"
                and tokens[i + 1].value == "namespace"
                and tokens[i + 2].kind == "id"
                and tokens[i + 2].value == "std"):
            an.emit(f, tok.line, "using-std",
                    "`using namespace std` banned")


@rule("kernel-push", "file")
def check_kernel_push(an, f):
    if top_dir(f.rel) != "exec":
        return
    tokens = f.tokens
    for i, tok in enumerate(tokens):
        if (tok.kind == "id"
                and tok.value in ("push_back", "emplace_back", "Add")
                and is_member_call(tokens, i)):
            an.emit(f, tok.line, "kernel-push",
                    "per-tuple push_back/Add in an exec kernel; deliver a "
                    "span (AppendBatch) or mark a blessed expansion helper "
                    "with `dqs-analyze: allow(kernel-push)`")


@rule("timeout-type", "file")
def check_timeout_type(an, f):
    if not f.rel.endswith(".h"):
        return
    tokens = f.tokens
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        if tok.kind != "id" or tok.value not in INT_TYPE_TOKENS:
            i += 1
            continue
        j = i + 1
        while (j < n and tokens[j].kind == "id"
               and tokens[j].value in ("long", "int", "unsigned")):
            j += 1
        if j >= n or tokens[j].kind != "id":
            i = j
            continue
        name = tokens[j].value
        terminator = tokens[j + 1] if j + 1 < n else None
        if (terminator is None or terminator.kind != "punct"
                or terminator.value not in (";", "=", "{")):
            i = j
            continue
        stripped = name.rstrip("_")
        lowered = stripped.lower()
        hit = next((w for w in DURATION_WORDS if w in lowered), None)
        if hit is None:
            i = j + 1
            continue
        if any(w + "s" in lowered for w in DURATION_WORDS):
            i = j + 1  # plural => event counter, not a duration
            continue
        an.emit(f, tokens[j].line, "timeout-type",
                f"`{stripped}` looks like a duration; declare it "
                "SimDuration, not a naked integer")
        i = j + 1


@rule("ancestors-index", "file")
def check_ancestors_index(an, f):
    if top_dir(f.rel) == "plan":
        return
    tokens = f.tokens
    for i, tok in enumerate(tokens):
        if (tok.kind == "id" and tok.value == "Ancestors"
                and is_member_call(tokens, i)):
            an.emit(f, tok.line, "ancestors-index",
                    "CompiledPlan::Ancestors() outside src/plan; read the "
                    "closure-index span AncestorsOf() instead")


# --------------------------------------------------------------------------
# Driver, self-test, CLI.
# --------------------------------------------------------------------------


def run(root, rules=None, print_prefix=None):
    """Analyzes `root`/src with the given rule subset; prints findings and
    returns a process exit code."""
    an = Analyzer(root, rules)
    if not an.src.is_dir():
        print(f"dqs_analyze: no src/ under {an.root}", file=sys.stderr)
        return 2
    findings = an.run()
    label = "dqs_analyze" if rules is None else "dqs_analyze (subset)"
    if findings:
        print(f"{label}: {len(findings)} finding(s)")
        for rel, line, rule_name, msg in findings:
            prefix = print_prefix if print_prefix is not None else str(
                an.src) + "/"
            print(f"  {prefix}{rel}:{line}: [{rule_name}] {msg}")
        return 1
    print(f"{label}: clean ({len(an.files)} files, "
          f"{len(an.rules)} rules)")
    return 0


def self_test(fixtures_dir):
    """Golden-finding fixture suite: every case directory holds a small
    src/ tree, a RULES file (rules to enable), and an EXPECTED file whose
    lines are `src/<path>:<line>: [<rule>]` prefixes of the findings the
    case must produce — exactly those, no more, no less."""
    fixtures = Path(fixtures_dir)
    cases = sorted(p for p in fixtures.iterdir()
                   if p.is_dir() and (p / "EXPECTED").exists())
    if not cases:
        print(f"dqs_analyze --self-test: no cases under {fixtures}",
              file=sys.stderr)
        return 2
    failures = 0
    for case in cases:
        rules = [r.strip() for r in (case / "RULES").read_text().split()
                 if r.strip()] if (case / "RULES").exists() else None
        expected = sorted(
            line.strip() for line in (case / "EXPECTED").read_text()
            .splitlines() if line.strip())
        an = Analyzer(case, rules)
        got = sorted(f"src/{rel}:{line}: [{rule_name}]"
                     for rel, line, rule_name, _ in an.run())
        if got != expected:
            failures += 1
            print(f"FAIL {case.name}")
            for miss in sorted(set(expected) - set(got)):
                print(f"  missing:    {miss}")
            for extra in sorted(set(got) - set(expected)):
                print(f"  unexpected: {extra}")
        else:
            print(f"ok   {case.name} ({len(expected)} finding(s))")
    if failures:
        print(f"dqs_analyze --self-test: {failures}/{len(cases)} case(s) "
              "FAILED")
        return 1
    print(f"dqs_analyze --self-test: all {len(cases)} cases passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dqs_analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("root", nargs="?", default=".",
                        help="repository root (containing src/)")
    parser.add_argument("--rules",
                        help="comma-separated rule subset (default: all)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", metavar="FIXTURES_DIR",
                        help="run the golden-finding fixture suite")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            scope, _ = RULES[name]
            print(f"{name:16s} {scope}")
        return 0
    if args.self_test:
        return self_test(args.self_test)
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    return run(args.root, rules)


if __name__ == "__main__":
    sys.exit(main())
