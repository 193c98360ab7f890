#!/usr/bin/env python3
"""Self-tests of the benchmark's checks: each accepts the report fockdyn
gives on a small seeded input and rejects a corrupted copy of it.

    python3 perfbench/selftest.py

Run from the root of a fockdyn checkout.  Exits 1 if a check rejects a
real report or accepts a corrupted one.
"""

import copy
import json
import os
import shutil
import sys

import numpy as np

import checks
import workloads
from run import OUT, load_cli


def scale_term(i, factor):
    def corrupt(rep):
        rep["terms"][i]["value"] *= factor

    return corrupt


def move_eigenvalue(rep):
    rep["eigenvalues"][0]["re"] += 1e-6


def shift_alpha(rep):
    rep["cyclicity"]["reasons"][0]["alpha"][0] += 1


def set_status(status):
    def corrupt(rep):
        rep["cyclicity"]["status"] = status

    return corrupt


def shift_rank(delta):
    def corrupt(rep):
        rep["rank"] += delta

    return corrupt


def flip_verdict(rep):
    rep["verdict"] = not rep["verdict"]


def drop_failing_index(rep):
    rep["failing_indices"].pop()


def shift_best_n(rep):
    rep["best_n"] += 1


def scale_coefficient(rep):
    rep["coefficients"][0]["value"]["re"] *= 1 + 1e-5


def main() -> int:
    cli = load_cli()
    rng = np.random.default_rng(7)
    cases = [
        ("spectrum: one eigenvalue moved by 1e-6", workloads.spectrum(rng, 3, 5), move_eigenvalue),
        ("planted relation: wrong alpha", workloads.analyze_planted(rng, 2), shift_alpha),
        ("planted relation: flipped verdict", workloads.analyze_planted(rng, 2), set_status("undecided")),
        ("exact relation: wrong alpha", workloads.analyze_exact(rng, relation=True), shift_alpha),
        ("exact relation: flipped verdict", workloads.analyze_exact(rng, relation=True), set_status("cyclic")),
        ("exact, no relation: flipped verdict", workloads.analyze_exact(rng, relation=False), set_status("not_cyclic")),
        ("numeric: flipped verdict", workloads.analyze_numeric(rng, 2, 12), set_status("not_cyclic")),
        ("approx: one value scaled by 1+1e-5", workloads.approx(rng, 3, 30, (0.5, 0.8), None), scale_term(7, 1 + 1e-5)),
        ("approx with oracle: one value scaled by 1+1e-5", workloads.approx(rng, 2, 20, (0.5, 0.8), "reduced"), scale_term(3, 1 + 1e-5)),
        ("orbit-rank: rank one too high", workloads.orbit_rank(rng, 3, 6, 20), shift_rank(1)),
        ("orbit-rank: rank one too low", workloads.orbit_rank(rng, 3, 6, 20), shift_rank(-1)),
        ("cyclic-vector, generic f: flipped verdict", workloads.cyclic_vector(rng, 3, 3, failing=False), flip_verdict),
        ("cyclic-vector, f = L^k: one failing index missing", workloads.cyclic_vector(rng, 3, 3, failing=True), drop_failing_index),
        ("demo-kronecker: wrong best_n", workloads.kronecker(rng, 3, 500), shift_best_n),
        ("project: one coefficient scaled by 1+1e-5", workloads.project(rng, 3, 5, 2, "recentering", terms=6), scale_coefficient),
    ]
    work = OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    bad = 0
    try:
        for name, cmd, corrupt in cases:
            path = work / "in.json"
            path.write_text(json.dumps(cmd.doc))
            reports = []
            for flags in (cmd.flags, cmd.companion):
                if flags is None:
                    reports.append(None)
                    continue
                out = work / f"out-{len(reports)}.json"
                code = cli.main([cmd.verb, str(path), *flags, "--output", str(out)])
                if code != 0:
                    raise SystemExit(f"selftest: {name}: fockdyn exited {code}")
                reports.append(json.loads(out.read_text()))
            report, companion = reports
            try:
                cmd.check(report, companion)
            except checks.CheckError as exc:
                print(f"FAIL {name}: the real report is rejected: {exc}")
                bad += 1
                continue
            corrupted = copy.deepcopy(report)
            corrupt(corrupted)
            try:
                cmd.check(corrupted, companion)
            except checks.CheckError as exc:
                print(f"ok   {name}: {exc}")
            else:
                print(f"FAIL {name}: the corrupted report is accepted")
                bad += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(cases) - bad}/{len(cases)} checks accept the real report and reject the corrupted one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
