#!/usr/bin/env python3
"""Validate a longnail --trace-json output file.

Two modes:

  check_trace.py TRACE.json
      One-shot CLI trace (ctest cli_trace_stats): well-formed Chrome
      trace-event JSON, every pipeline phase of Fig. 9 contributed at
      least one complete ("X") span nested inside the top-level
      compile span.

  check_trace.py --serve TRACE.json
      A --serve-produced trace (ctest cli_serve_obs): every compile
      handled by the server appears as a `request` span; spans that
      carry a propagated client trace context (`trace`/`parent` args)
      are checked against it; per-rid phase spans nest inside their
      request span.

Both modes additionally check structural invariants that hold for any
longnail trace: durations are non-negative, per-thread spans are
properly nested (no partial overlap -- the tracer records closing
scopes), and record order is monotone in span end time per thread.
"""

import json
import sys

REQUIRED_PHASES = [
    "parse",
    "sema",
    "astlower",
    "analysis",
    "canonicalize",
    "lil",
    "sched",
    "hwgen",
    "scaiev-config",
    "compile",
]


def load(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    if not events:
        sys.exit("no trace events recorded")
    by_name = {}
    for event in events:
        if event["ph"] != "X":
            sys.exit("unexpected event phase %r" % event["ph"])
        if event["dur"] < 0:
            sys.exit("negative duration in span %r" % event["name"])
        by_name.setdefault(event["name"], []).append(event)
    return events, by_name


def check_structure(events):
    """Per-thread invariants that hold for any longnail trace."""
    by_tid = {}
    for event in events:
        by_tid.setdefault(event["tid"], []).append(event)
    for tid, spans in by_tid.items():
        # The tracer appends a span when its scope closes, so record
        # order is monotone in end timestamp per thread.
        prev_end = -1.0
        for span in spans:
            end = span["ts"] + span["dur"]
            if end + 1e-6 < prev_end:
                sys.exit(
                    "tid %s: span %r ends at %f before the previously "
                    "recorded span ended at %f (non-monotone record "
                    "order)" % (tid, span["name"], end, prev_end))
            prev_end = max(prev_end, end)
        # Scoped spans on one thread either nest or are disjoint;
        # partial overlap would mean a corrupted scope stack.
        for i, a in enumerate(spans):
            a0, a1 = a["ts"], a["ts"] + a["dur"]
            for b in spans[i + 1:]:
                b0, b1 = b["ts"], b["ts"] + b["dur"]
                eps = 1e-6
                disjoint = b0 >= a1 - eps or a0 >= b1 - eps
                a_in_b = b0 <= a0 + eps and a1 <= b1 + eps
                b_in_a = a0 <= b0 + eps and b1 <= a1 + eps
                if not (disjoint or a_in_b or b_in_a):
                    sys.exit(
                        "tid %s: spans %r [%f, %f] and %r [%f, %f] "
                        "partially overlap" %
                        (tid, a["name"], a0, a1, b["name"], b0, b1))


def check_oneshot(events, by_name):
    for phase in REQUIRED_PHASES:
        if phase not in by_name:
            sys.exit("missing span for phase %r (have: %s)"
                     % (phase, sorted(by_name)))

    # Every phase span must nest inside the enclosing compile span.
    compile_span = by_name["compile"][0]
    lo = compile_span["ts"]
    hi = lo + compile_span["dur"]
    for phase in REQUIRED_PHASES:
        if phase == "compile":
            continue
        for span in by_name[phase]:
            if span["ts"] < lo or span["ts"] + span["dur"] > hi + 1e-6:
                sys.exit("span %r [%f, %f] escapes the compile span "
                         "[%f, %f]" % (phase, span["ts"],
                                       span["ts"] + span["dur"], lo, hi))


def check_serve(events, by_name):
    requests = by_name.get("request", [])
    if not requests:
        sys.exit("no `request` spans in the serve trace")

    propagated = [r for r in requests
                  if r.get("args", {}).get("trace")]
    if not propagated:
        sys.exit("no request span carries a propagated client trace "
                 "context (trace/parent args)")
    for span in propagated:
        args = span["args"]
        if not args.get("parent"):
            sys.exit("request span with trace %r lacks a parent span "
                     "id" % args["trace"])
        if not args.get("rid"):
            sys.exit("request span with trace %r lacks a rid tag"
                     % args["trace"])
        if not args.get("outcome"):
            sys.exit("request span with trace %r lacks an outcome"
                     % args["trace"])

    # Phase spans are tagged with the rid of the request they served;
    # each must nest (in time) inside that request's span interval.
    intervals = {}
    for span in requests:
        rid = span.get("args", {}).get("rid")
        if rid:
            intervals[rid] = (span["ts"], span["ts"] + span["dur"])
    phase_tagged = 0
    for name, spans in by_name.items():
        if name in ("request", "client.request"):
            continue
        for span in spans:
            rid = span.get("args", {}).get("rid")
            if rid is None or rid not in intervals:
                continue
            phase_tagged += 1
            lo, hi = intervals[rid]
            if span["ts"] < lo - 1e-6 or \
                    span["ts"] + span["dur"] > hi + 1e-6:
                sys.exit(
                    "span %r of rid %s [%f, %f] escapes its request "
                    "span [%f, %f]" %
                    (name, rid, span["ts"],
                     span["ts"] + span["dur"], lo, hi))
    if phase_tagged == 0:
        sys.exit("no rid-tagged spans nest under any request span")

    # A fresh compile leaves per-phase spans: at least one rid must
    # have a `sched` span under its request.
    scheds = [s for s in by_name.get("sched", [])
              if s.get("args", {}).get("rid") in intervals]
    if not scheds:
        sys.exit("no rid-tagged `sched` phase span under any request "
                 "(no fresh compile traced?)")


def main():
    args = sys.argv[1:]
    serve_mode = False
    if args and args[0] == "--serve":
        serve_mode = True
        args = args[1:]
    if len(args) != 1:
        sys.exit("usage: check_trace.py [--serve] TRACE.json")

    events, by_name = load(args[0])
    check_structure(events)
    if serve_mode:
        check_serve(events, by_name)
    else:
        check_oneshot(events, by_name)

    print("ok: %d events, %d distinct span names"
          % (len(events), len(by_name)))


if __name__ == "__main__":
    main()
