#!/usr/bin/env python3
"""gaslint: project-specific static checks for the gas codebase.

Usage:
    gaslint.py [-p BUILD_DIR] [--check NAME]... [--no-path-filter] [PATH]...

PATH arguments are files or directories (searched recursively for
*.cpp / *.h). With no PATHs, the file list comes from BUILD_DIR's
compile_commands.json when present, else from `src bench tests`.
Fixture sources under tests/lint_fixtures/ are skipped unless named
explicitly.

Checks (suppress a line with `// gaslint: allow(check-name)` on the
finding's line or the line above):

  gas-raw-getenv            std::getenv outside src/support/env.*;
                            configuration must go through gas::env so
                            empty/malformed values behave uniformly.
  gas-discarded-status      a call to a function returning Status or
                            StatusOr used as a whole statement; the
                            error is silently dropped. Cast to (void)
                            to discard deliberately.
  gas-missing-cancel-poll   a round loop (trace::Span kRound /
                            metrics kRounds marker) in src/lagraph/ or
                            src/lonestar/ without a cancel_requested()
                            poll; such loops ignore deadlines and
                            cancellation.
  gas-ref-capture-in-parallel
                            a scalar captured by reference and written
                            plainly inside a do_all / do_all_blocked /
                            for_each / on_each lambda; concurrent
                            writers race. Use atomics, per-range
                            locals folded after the loop, or indexed
                            writes to disjoint slots.
  gas-raw-accessor-in-parallel
                            raw_col() / raw_vals() / raw_row_ptr()
                            called inside a parallel loop lambda. The
                            non-const Matrix accessors drop the
                            matrix's derived storage, so workers
                            calling them race on it; take the
                            reference once before the loop.
  gas-std-function-in-kernel
                            std::function (or <functional>) in
                            src/matrix/ hot kernels; type-erased calls
                            defeat inlining on per-edge paths. The
                            record-time planner (lazy.h,
                            lazy_registry.*) is exempt.
  gas-exec-mode-in-algorithm
                            ExecModeScope / set_exec_mode / exec_mode()
                            in src/lagraph/ or src/lonestar/. An
                            algorithm is written once; only its caller
                            chooses blocking or non-blocking (fused)
                            execution.
  gas-unregistered-metric   stats::histogram("...") / stats::gauge("...")
                            with a name literal that is not declared in
                            src/stats/registry.h; every series must be
                            registered centrally so exposition
                            consumers can enumerate them.

Implementation note: the environment this project builds in has no
libclang (and no python clang bindings), so the checks run on a C++
token stream produced by the lexer below rather than on a clang AST.
The token grammar each check needs is small and idiomatic to this
codebase; -p/compile_commands.json is used only for file discovery.
Heuristic limits are documented per check.
"""

import argparse
import json
import re
import sys
from pathlib import Path

SUPPRESS_RE = re.compile(r"gaslint:\s*allow\(([a-z0-9-]+|\*)\)")

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

PUNCTS = sorted(
    [
        "->*", "<<=", ">>=", "...", "::", "->", "++", "--", "<<", ">>",
        "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
        "%=", "&=", "|=", "^=", "##",
        "{", "}", "(", ")", "[", "]", ";", ",", ".", "<", ">", "=",
        "+", "-", "*", "/", "%", "&", "|", "^", "!", "~", "?", ":", "#",
    ],
    key=len,
    reverse=True,
)

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}

RAW_PREFIXES = {"R", "u8R", "uR", "UR", "LR"}


class Token:
    __slots__ = ("kind", "text", "line", "value")

    def __init__(self, kind, text, line, value=None):
        self.kind = kind  # 'id' | 'num' | 'str' | 'chr' | 'punct'
        self.text = text
        # String literals keep a placeholder in `text` (so bracket
        # matching never trips over quoted punctuation) and carry their
        # unescaped-as-written contents here for checks that care.
        self.value = value
        self.line = line

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r}, {self.line})"


class Lexed:
    """Token stream plus the side tables the checks need."""

    def __init__(self, tokens, suppressions, includes):
        self.tokens = tokens
        self.suppressions = suppressions  # line -> {check-name or '*'}
        self.includes = includes  # [(line, header-name)]


def _lex_raw_string(text, i, line):
    # i points at the opening quote of R"delim( ... )delim".
    j = text.index("(", i)
    delim = text[i + 1:j]
    closer = ")" + delim + '"'
    k = text.find(closer, j)
    if k == -1:
        return len(text), text.count("\n", i), text[j + 1:]
    return k + len(closer), text.count("\n", i, k), text[j + 1:k]


def lex(text):
    tokens = []
    suppressions = {}
    includes = []
    i, n, line = 0, len(text), 1
    bol = True  # only whitespace seen so far on this line

    def note_suppressions(comment, comment_line):
        for m in SUPPRESS_RE.finditer(comment):
            suppressions.setdefault(comment_line, set()).add(m.group(1))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            bol = True
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and text[i + 1:i + 2] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            note_suppressions(text[i:j], line)
            i = j
            continue
        if c == "/" and text[i + 1:i + 2] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            note_suppressions(text[i:j], line)
            line += text.count("\n", i, j)
            i = j
            continue
        if c == "#" and bol:
            # Preprocessor directive: consume the logical line.
            j = i
            while j < n:
                k = text.find("\n", j)
                k = n if k == -1 else k
                if text[k - 1:k] == "\\":
                    j = k + 1
                else:
                    j = k
                    break
            directive = text[i:j]
            m = re.match(r"#\s*include\s*[<\"]([^>\"]+)[>\"]", directive)
            if m:
                includes.append((line, m.group(1)))
            line += directive.count("\n")
            i = j
            continue
        bol = False
        if c == '"':
            prev = tokens[-1] if tokens else None
            if (prev is not None and prev.kind == "id"
                    and prev.text in RAW_PREFIXES and prev.line == line):
                tokens.pop()
                i, newlines, contents = _lex_raw_string(text, i, line)
                tokens.append(Token("str", "<raw-str>", line, contents))
                line += newlines
                continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("str", "<str>", line, text[i + 1:j]))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("chr", "<chr>", line))
            i = j + 1
            continue
        if c.isdigit() or (c == "." and text[i + 1:i + 2].isdigit()):
            j = i + 1
            while j < n:
                d = text[j]
                if d.isalnum() or d in "._'":
                    j += 1
                elif d in "+-" and text[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue
        for p in PUNCTS:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            i += 1  # stray byte; skip
    return Lexed(tokens, suppressions, includes)


# ---------------------------------------------------------------------------
# Token-stream helpers
# ---------------------------------------------------------------------------

OPENERS = {"(": ")", "[": "]", "{": "}"}


def match_bracket(tokens, open_index):
    """Index of the token closing tokens[open_index], or len(tokens)."""
    opener = tokens[open_index].text
    closer = OPENERS[opener]
    depth = 0
    for i in range(open_index, len(tokens)):
        t = tokens[i].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


def skip_template_args(tokens, i):
    """Given tokens[i] == '<', index just past the matching '>'."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
        elif t == ">>":
            depth -= 2
        elif t in (";", "{"):
            return i  # not a template argument list after all
        i += 1
        if depth <= 0:
            return i
    return i


class Finding:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message


# ---------------------------------------------------------------------------
# gas-raw-getenv
# ---------------------------------------------------------------------------

GETENV_NAMES = {"getenv", "secure_getenv", "_wgetenv"}
GETENV_EXEMPT_SUFFIXES = ("src/support/env.cpp", "src/support/env.h")


def check_raw_getenv(path, lexed, ctx, findings):
    if not ctx.path_filter_off and str(path).replace("\\", "/").endswith(
            GETENV_EXEMPT_SUFFIXES):
        return
    for tok in lexed.tokens:
        if tok.kind == "id" and tok.text in GETENV_NAMES:
            findings.append(Finding(
                "gas-raw-getenv", path, tok.line,
                f"raw {tok.text}(); read configuration through the "
                "gas::env helpers (support/env.h)"))


# ---------------------------------------------------------------------------
# gas-discarded-status
# ---------------------------------------------------------------------------

STATUS_TYPES = {"Status", "StatusOr"}


def collect_status_functions(lexed, names):
    """Names of functions declared to return Status/StatusOr by value.

    Pattern: `Status[Or][<args>] name (` not behind `.`/`->` (so member
    accesses don't look like return types). Reference-returning
    accessors (`const Status& status()`) are deliberately not
    collected: discarding a reference getter drops no error.
    """
    tokens = lexed.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in STATUS_TYPES:
            continue
        if i > 0 and tokens[i - 1].text in (".", "->"):
            continue
        j = i + 1
        if j < len(tokens) and tokens[j].text == "<":
            j = skip_template_args(tokens, j)
        if (j + 1 < len(tokens) and tokens[j].kind == "id"
                and tokens[j].text not in STATUS_TYPES
                and tokens[j].text != "operator"
                and tokens[j + 1].text == "("):
            names.add(tokens[j].text)


def check_discarded_status(path, lexed, ctx, findings):
    tokens = lexed.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in ctx.status_functions:
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        close = match_bracket(tokens, i + 1)
        if close + 1 >= len(tokens) or tokens[close + 1].text != ";":
            continue  # result consumed (assigned, returned, wrapped)
        # Walk a qualification / member chain back to its head, then
        # require a statement boundary before it: `obj.f();`,
        # `ns::f();`, `f();` are discards; `return f();`, `x = f();`,
        # `(void) f();`, `if (f().ok())` are not.
        start = i
        while (start >= 2 and tokens[start - 1].text in ("::", ".", "->")
               and tokens[start - 2].kind == "id"):
            start -= 2
        if start == 0 or tokens[start - 1].text in (";", "{", "}"):
            findings.append(Finding(
                "gas-discarded-status", path, tok.line,
                f"result of {tok.text}() (Status/StatusOr) is discarded;"
                " handle it, GAS_RETURN_IF_ERROR it, or cast to (void)"))


# ---------------------------------------------------------------------------
# gas-missing-cancel-poll
# ---------------------------------------------------------------------------

ROUND_MARKERS = {"kRound", "kRounds"}
CANCEL_POLL = "cancel_requested"


def find_loops(tokens):
    """[(keyword_index, extent_end_index)] covering header + body."""
    loops = []
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.kind == "id" and t.text in ("for", "while"):
            j = i + 1
            if j < len(tokens) and tokens[j].text == "(":
                hdr_close = match_bracket(tokens, j)
                body = hdr_close + 1
                if body < len(tokens) and tokens[body].text == "{":
                    end = match_bracket(tokens, body)
                else:
                    end = body
                    depth = 0
                    while end < len(tokens):
                        txt = tokens[end].text
                        if txt in OPENERS:
                            depth += 1
                        elif txt in (")", "]", "}"):
                            depth -= 1
                        elif txt == ";" and depth == 0:
                            break
                        end += 1
                loops.append((i, end))
        elif (t.kind == "id" and t.text == "do"
              and i + 1 < len(tokens) and tokens[i + 1].text == "{"):
            body_close = match_bracket(tokens, i + 1)
            end = body_close
            if (body_close + 2 < len(tokens)
                    and tokens[body_close + 1].text == "while"
                    and tokens[body_close + 2].text == "("):
                end = match_bracket(tokens, body_close + 2)
            loops.append((i, end))
        i += 1
    return loops


def in_algorithm_dir(path):
    posix = str(path).replace("\\", "/")
    return ("/lagraph/" in posix or "/lonestar/" in posix
            or posix.startswith(("src/lagraph/", "src/lonestar/")))


def check_missing_cancel_poll(path, lexed, ctx, findings):
    if not ctx.path_filter_off and not in_algorithm_dir(path):
        return
    tokens = lexed.tokens
    loops = find_loops(tokens)
    flagged = set()
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in ROUND_MARKERS:
            continue
        # Innermost enclosing loop owns the marker; markers outside any
        # loop (one-shot phases like ls_cc's finish pass) are fine.
        owner = None
        for (start, end) in loops:
            if start < i <= end:
                if owner is None or start > owner[0]:
                    owner = (start, end)
        if owner is None or owner in flagged:
            continue
        start, end = owner
        polled = any(
            tokens[k].kind == "id" and tokens[k].text == CANCEL_POLL
            for k in range(start, end + 1))
        if not polled:
            flagged.add(owner)
            findings.append(Finding(
                "gas-missing-cancel-poll", path, tokens[start].line,
                "round loop never polls cancel_requested(); it will "
                "ignore cancellation and deadlines (poll in the loop "
                "condition, as in `while (work && !cancel_requested())`)"))


# ---------------------------------------------------------------------------
# gas-ref-capture-in-parallel
# ---------------------------------------------------------------------------

PARALLEL_FNS = {"do_all", "do_all_blocked", "do_all_items", "for_each",
                "for_each_ordered", "on_each"}
DECL_INTRODUCERS = {"auto", ">", "&", "*", "::"}

# Writes through the runtime's reducers (runtime/reducers.h) are
# per-thread and merge-on-reduce; they are the sanctioned way to
# accumulate from a parallel loop and must not be flagged.
REDUCER_TYPES = {"Reducer", "Accumulator", "ReduceMax", "ReduceMin",
                 "ReduceOr"}


def reducer_declared_ids(tokens):
    """Identifiers declared with a reducer type anywhere in the file."""
    ids = set()
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in REDUCER_TYPES:
            continue
        j = i + 1
        if j < len(tokens) and tokens[j].text == "<":
            j = skip_template_args(tokens, j)
        if j < len(tokens) and tokens[j].kind == "id":
            ids.add(tokens[j].text)
    return ids


def parse_capture_list(tokens, open_bracket):
    """(default_ref, ref_ids, value_ids) of a lambda introducer."""
    close = match_bracket(tokens, open_bracket)
    default_ref = False
    ref_ids = set()
    value_ids = set()
    k = open_bracket + 1
    while k < close:
        t = tokens[k]
        if t.text == "&":
            nxt = tokens[k + 1] if k + 1 < close else None
            if nxt is not None and nxt.kind == "id":
                ref_ids.add(nxt.text)
                k += 2
            else:
                default_ref = True
                k += 1
        elif t.kind == "id" and t.text != "this":
            value_ids.add(t.text)
            k += 1
        else:
            k += 1
        # Skip init-capture initializers: `[&x = y]` aliases y by ref.
        if k < close and tokens[k].text == "=":
            while k < close and tokens[k].text != ",":
                k += 1
        if k < close and tokens[k].text == ",":
            k += 1
    return default_ref, ref_ids, value_ids, close


def local_declarations(tokens, begin, end):
    """Over-approximate set of identifiers declared in [begin, end).

    An id counts as declared when preceded by a type-ish token (another
    id, `auto`, `>`, `&`, `*`, `::`) and followed by `=`, `;`, `{`,
    `,`, `)`, or `:` (range-for). Over-approximation only hides
    findings, never invents them.
    """
    declared = set()
    for k in range(begin + 1, end):
        t = tokens[k]
        if t.kind != "id":
            continue
        prev = tokens[k - 1]
        nxt = tokens[k + 1] if k + 1 < end else None
        if nxt is None:
            continue
        prev_ok = (prev.kind == "id" and prev.text not in ("return",))
        prev_ok = prev_ok or prev.text in DECL_INTRODUCERS
        if prev_ok and nxt.text in ("=", ";", "{", ",", ")", ":"):
            declared.add(t.text)
    return declared


def chain_base(tokens, index):
    """Head identifier of a `a.b->c` chain ending at tokens[index]."""
    p = index
    while (p >= 2 and tokens[p - 1].text in (".", "->")
           and tokens[p - 2].kind == "id"):
        p -= 2
    if p >= 1 and tokens[p - 1].text in (".", "->"):
        return None  # chain rooted in a call/deref; cannot resolve
    return tokens[p]


def scan_lambda_writes(path, tokens, body_begin, body_end, default_ref,
                       ref_ids, exempt, findings):
    """Flag plain writes to by-ref captures inside [body_begin, body_end)."""
    declared = local_declarations(tokens, body_begin, body_end) | exempt
    reported = set()

    def report(base_tok, how):
        target = base_tok.text
        if target in declared or target == "this":
            return
        if not default_ref and target not in ref_ids:
            return
        key = (target, base_tok.line)
        if key in reported:
            return
        reported.add(key)
        findings.append(Finding(
            "gas-ref-capture-in-parallel", path, base_tok.line,
            f"'{target}' is captured by reference and {how} inside a "
            "parallel loop body; concurrent writers race. Use an "
            "atomic, a per-range local folded after the loop, or an "
            "indexed write to a disjoint slot"))

    for k in range(body_begin + 1, body_end):
        t = tokens[k]
        if t.text in ("++", "--") and t.kind == "punct":
            nxt = tokens[k + 1] if k + 1 < body_end else None
            prev = tokens[k - 1]
            if (nxt is not None and nxt.kind == "id"
                    and prev.kind != "id" and prev.text not in (")", "]")):
                after = tokens[k + 2] if k + 2 < body_end else None
                if after is not None and after.text in (".", "->", "["):
                    continue  # ++it->second etc.: container mutation
                report(nxt, "incremented")
            elif prev.kind == "id":
                # Postfix: `x++`, `a.b++`. Indexed (`v[i]++`) never
                # matches since prev is then `]`.
                base = chain_base(tokens, k - 1)
                if base is not None:
                    report(base, "incremented")
        elif t.text in ASSIGN_OPS and t.kind == "punct":
            lhs = tokens[k - 1]
            if lhs.kind != "id":
                continue  # indexed write `v[i] = x`: disjoint-slot idiom
            base = chain_base(tokens, k - 1)
            if base is None:
                continue
            report(base, "assigned")


def parallel_lambdas(tokens):
    """Yield (capture_open, param_ids, body_open, body_close) for every
    lambda passed directly as an argument to a PARALLEL_FNS call."""
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in PARALLEL_FNS:
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        call_close = match_bracket(tokens, i + 1)
        k = i + 2
        while k < call_close:
            if (tokens[k].text == "["
                    and tokens[k - 1].text in ("(", ",")):
                cap_close = match_bracket(tokens, k)
                # Parameter list (optional) then body.
                p = cap_close + 1
                params = set()
                if p < call_close and tokens[p].text == "(":
                    param_close = match_bracket(tokens, p)
                    params = {t.text for t in tokens[p:param_close]
                              if t.kind == "id"}
                    p = param_close + 1
                while p < call_close and tokens[p].text != "{":
                    p += 1  # skip mutable / -> ret
                if p < call_close:
                    body_close = match_bracket(tokens, p)
                    yield k, params, p, body_close
                    k = body_close
            k += 1


def check_ref_capture_in_parallel(path, lexed, ctx, findings):
    tokens = lexed.tokens
    reducers = reducer_declared_ids(tokens)
    for cap_open, params, body_open, body_close in parallel_lambdas(tokens):
        default_ref, ref_ids, _, _ = parse_capture_list(tokens, cap_open)
        if default_ref or ref_ids:
            scan_lambda_writes(path, tokens, body_open, body_close,
                               default_ref, ref_ids, set(reducers) | params,
                               findings)


# ---------------------------------------------------------------------------
# gas-raw-accessor-in-parallel
# ---------------------------------------------------------------------------

RAW_ACCESSORS = {"raw_col", "raw_vals", "raw_row_ptr"}


def check_raw_accessor_in_parallel(path, lexed, ctx, findings):
    """Matrix::raw_col()/raw_vals()/raw_row_ptr() inside a parallel
    lambda. The non-const overloads call invalidate_storage(), a write
    to the shared matrix from every worker. Heuristic limit: tokens do
    not carry types, so the harmless const overloads are flagged too;
    the const row views (row_indices/row_values) serve workers instead.
    """
    tokens = lexed.tokens
    flagged = set()  # nested parallel lambdas share tokens
    for _, _, body_open, body_close in parallel_lambdas(tokens):
        for k in range(body_open + 1, body_close - 2):
            t = tokens[k]
            if (t.kind == "id" and t.text in RAW_ACCESSORS
                    and tokens[k + 1].text == "("
                    and tokens[k + 2].text == ")" and k not in flagged):
                flagged.add(k)
                findings.append(Finding(
                    "gas-raw-accessor-in-parallel", path, t.line,
                    f"{t.text}() inside a parallel loop body; the "
                    "non-const Matrix accessor drops derived storage on "
                    "every call, so workers race on the shared matrix. "
                    "Take the reference once before the loop"))


# ---------------------------------------------------------------------------
# gas-std-function-in-kernel
# ---------------------------------------------------------------------------

KERNEL_EXEMPT = ("lazy.h", "lazy_registry.h", "lazy_registry.cpp")


def check_std_function_in_kernel(path, lexed, ctx, findings):
    posix = str(path).replace("\\", "/")
    if not ctx.path_filter_off:
        if "/matrix/" not in posix and not posix.startswith("src/matrix/"):
            return
        if posix.endswith(KERNEL_EXEMPT):
            return
    for (line, header) in lexed.includes:
        if header == "functional":
            findings.append(Finding(
                "gas-std-function-in-kernel", path, line,
                "<functional> included in a matrix kernel header; "
                "type-erased callables belong in the lazy planner "
                "(lazy.h), kernels take template callables"))
    tokens = lexed.tokens
    for i, tok in enumerate(tokens):
        if (tok.kind == "id" and tok.text == "function" and i >= 2
                and tokens[i - 1].text == "::"
                and tokens[i - 2].text == "std"):
            findings.append(Finding(
                "gas-std-function-in-kernel", path, tok.line,
                "std::function in a matrix kernel; template on the "
                "callable instead (type-erased calls defeat inlining "
                "on per-edge paths)"))


# ---------------------------------------------------------------------------
# gas-exec-mode-in-algorithm
# ---------------------------------------------------------------------------

EXEC_MODE_CALLS = {"set_exec_mode", "exec_mode"}


def check_exec_mode_in_algorithm(path, lexed, ctx, findings):
    """An algorithm that reads or sets the execution mode. The lazy
    recorders already run eagerly in blocking mode and defer/fuse in
    non-blocking mode, so one body serves both; a mode switch or a mode
    branch inside it would fork that body again.
    """
    if not ctx.path_filter_off and not in_algorithm_dir(path):
        return
    tokens = lexed.tokens
    for i, t in enumerate(tokens):
        if t.kind != "id":
            continue
        called = (t.text in EXEC_MODE_CALLS and i + 1 < len(tokens)
                  and tokens[i + 1].text == "(")
        if t.text == "ExecModeScope" or called:
            findings.append(Finding(
                "gas-exec-mode-in-algorithm", path, t.line,
                f"{t.text} inside an algorithm; write the body once "
                "against the grb::lazy recorders and let the caller "
                "choose the mode with grb::ExecModeScope"))


# ---------------------------------------------------------------------------
# gas-unregistered-metric
# ---------------------------------------------------------------------------

METRIC_REGISTRY = Path(__file__).resolve().parents[2] / "src" / "stats" / \
    "registry.h"
METRIC_FACTORIES = {"histogram", "gauge"}


def registered_metric_names(ctx):
    """Every string literal in src/stats/registry.h (cached).

    The registry header defines one `constexpr const char* kFoo =
    "name";` per series and nothing else carries string literals, so
    collecting all literals is exact. A missing registry (stale
    checkout) disables the check rather than flagging everything.
    """
    if ctx.metric_names is None:
        ctx.metric_names = set()
        try:
            text = METRIC_REGISTRY.read_text(encoding="utf-8",
                                             errors="replace")
        except OSError:
            return ctx.metric_names
        for tok in lex(text).tokens:
            if tok.kind == "str" and tok.value:
                ctx.metric_names.add(tok.value)
    return ctx.metric_names


def check_unregistered_metric(path, lexed, ctx, findings):
    """`stats::histogram("...")` / `stats::gauge("...")` literals must
    name a series declared in src/stats/registry.h.

    Heuristic limits: only literal arguments are checked (calls through
    stats::names:: constants or variables are already registry-backed
    or dynamic by design), and only calls qualified with `stats::` are
    matched so unrelated histogram()/gauge() helpers never trip it.
    """
    names = registered_metric_names(ctx)
    if not names:
        return
    tokens = lexed.tokens
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in METRIC_FACTORIES:
            continue
        if i < 2 or tokens[i - 1].text != "::" or \
                tokens[i - 2].text != "stats":
            continue
        if i + 2 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        arg = tokens[i + 2]
        if arg.kind != "str":
            continue
        if arg.value not in names:
            findings.append(Finding(
                "gas-unregistered-metric", path, arg.line,
                f'stats::{tok.text}("{arg.value}") names a series not '
                "declared in src/stats/registry.h; add a constant "
                "there (the registry is what exposition consumers and "
                "dashboards enumerate)"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

CHECKS = {
    "gas-raw-getenv": check_raw_getenv,
    "gas-discarded-status": check_discarded_status,
    "gas-missing-cancel-poll": check_missing_cancel_poll,
    "gas-ref-capture-in-parallel": check_ref_capture_in_parallel,
    "gas-raw-accessor-in-parallel": check_raw_accessor_in_parallel,
    "gas-std-function-in-kernel": check_std_function_in_kernel,
    "gas-exec-mode-in-algorithm": check_exec_mode_in_algorithm,
    "gas-unregistered-metric": check_unregistered_metric,
}


class Context:
    def __init__(self, path_filter_off):
        self.path_filter_off = path_filter_off
        self.status_functions = set()
        self.metric_names = None


def discover(paths, build_dir):
    files = []
    if not paths:
        cc = Path(build_dir or "build") / "compile_commands.json"
        if cc.is_file():
            entries = json.loads(cc.read_text())
            files = sorted({Path(e["file"]) for e in entries})
            # compile_commands lists only TUs; headers carry kernels
            # and annotations, so widen to the TU's directories.
            dirs = sorted({f.parent for f in files})
            for d in dirs:
                files.extend(sorted(d.glob("*.h")))
            paths = []
        else:
            paths = ["src", "bench", "tests"]
    for raw in paths:
        p = Path(raw)
        explicit_fixture = "lint_fixtures" in p.parts
        if p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix not in (".cpp", ".h"):
                    continue
                # Fixtures are reachable only by naming them (or their
                # directory) directly, never from a tree-wide run.
                if "lint_fixtures" in f.parts and not explicit_fixture:
                    continue
                files.append(f)
        elif p.is_file():
            files.append(p)
        else:
            print(f"gaslint: no such path: {raw}", file=sys.stderr)
            return None
    out = []
    seen = set()
    for f in files:
        key = str(f)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="gaslint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories")
    ap.add_argument("-p", "--build-dir", default=None,
                    help="build dir holding compile_commands.json "
                         "(file discovery fallback)")
    ap.add_argument("--check", action="append", default=None,
                    help="run only this check (repeatable)")
    ap.add_argument("--no-path-filter", action="store_true",
                    help="ignore per-check path scoping (fixture runs)")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for name in sorted(CHECKS):
            print(name)
        return 0

    selected = args.check or sorted(CHECKS)
    for name in selected:
        if name not in CHECKS:
            print(f"gaslint: unknown check '{name}'", file=sys.stderr)
            return 2

    files = discover(args.paths, args.build_dir)
    if files is None:
        return 2

    ctx = Context(args.no_path_filter)
    lexed_files = []
    for f in files:
        try:
            text = f.read_text(encoding="utf-8", errors="replace")
        except OSError as err:
            print(f"gaslint: cannot read {f}: {err}", file=sys.stderr)
            return 2
        lexed = lex(text)
        lexed_files.append((f, lexed))
        collect_status_functions(lexed, ctx.status_functions)

    findings = []
    for (f, lexed) in lexed_files:
        per_file = []
        for name in selected:
            CHECKS[name](f, lexed, ctx, per_file)
        for finding in per_file:
            allowed = (lexed.suppressions.get(finding.line, set())
                       | lexed.suppressions.get(finding.line - 1, set()))
            if finding.check in allowed or "*" in allowed:
                continue
            findings.append(finding)

    findings.sort(key=lambda f: (str(f.path), f.line, f.check))
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.check}] {f.message}")
    if findings:
        print(f"gaslint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
