"""Docs-as-tests: smoke-execute every fenced python block in the docs.

Code samples rot silently — an API rename leaves ``docs/*.md`` claiming
constructors that no longer exist. This runner makes the docs part of
CI (the ``docs`` job): it extracts every fenced ```` ```python ````
block from ``docs/*.md`` and ``README.md`` and executes it, so a sample
that stops importing or stops running fails the build next to lint.

Rules (documented for doc authors in docs/observability.md):

* blocks in one file run **cumulatively** in a shared namespace, top to
  bottom — later samples may use names earlier samples defined, exactly
  as a reader would type them into one session;
* each file runs in its own temporary working directory — samples that
  write artifacts (``run.ckpt``) stay self-contained;
* a block tagged ```` ```python fragment ```` is **syntax-checked
  only** — for deliberately incomplete sketches (``...`` placeholders,
  illustrative attribute listings on objects the sample doesn't build);
* any other fence language (``sh``, ``text``) is ignored.

Run locally with::

    PYTHONPATH=src python tools/docs_as_tests.py
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
import traceback

#: Example scripts executed end-to-end alongside the doc blocks. Most
#: examples double as fenced blocks somewhere in docs/; the ones listed
#: here have no doc twin (multi-process orchestration or a whole
#: design-space campaign does not fit a cumulative doc namespace) and
#: would otherwise rot unexecuted.
EXAMPLE_SCRIPTS = ("examples/fleet_serving.py", "examples/design_space.py")

#: ```python ...\n<body>``` — the info string after "python" carries
#: flags (currently just "fragment"). The fence may be indented (a
#: block inside a markdown list); the body is dedented to match.
_FENCE = re.compile(
    r"^(?P<indent>[ \t]*)```python(?P<flags>[^\n`]*)\n"
    r"(?P<body>.*?)^(?P=indent)```[ \t]*$",
    re.S | re.M,
)


def extract_blocks(text: str) -> list:
    """``(flags, line_number, body)`` of every fenced python block."""
    blocks = []
    for match in _FENCE.finditer(text):
        flags = match.group("flags").split()
        line = text.count("\n", 0, match.start()) + 2
        indent = match.group("indent")
        body = match.group("body")
        if indent:
            body = "".join(
                raw[len(indent):] if raw.startswith(indent) else raw
                for raw in body.splitlines(keepends=True)
            )
        blocks.append((flags, line, body))
    return blocks


def doc_files(root: str) -> list:
    docs = sorted(
        os.path.join(root, "docs", name)
        for name in os.listdir(os.path.join(root, "docs"))
        if name.endswith(".md")
    )
    return [os.path.join(root, "README.md")] + docs


def run_file(path: str, verbose: bool = True) -> list:
    """Execute ``path``'s blocks; returns failures as (label, error)."""
    with open(path) as handle:
        blocks = extract_blocks(handle.read())
    failures = []
    if not blocks:
        return failures
    namespace = {"__name__": f"docs_as_tests:{os.path.basename(path)}"}
    before = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="docs-as-tests-") as scratch:
        os.chdir(scratch)
        try:
            for flags, line, body in blocks:
                label = f"{os.path.relpath(path, start=before)}:{line}"
                start = time.perf_counter()
                try:
                    code = compile(body, label, "exec")
                    if "fragment" not in flags:
                        exec(code, namespace)  # noqa: S102 - the point
                except Exception:
                    failures.append((label, traceback.format_exc()))
                    if verbose:
                        print(f"  FAIL {label}")
                    continue
                if verbose:
                    wall = time.perf_counter() - start
                    what = (
                        "syntax-ok" if "fragment" in flags
                        else f"ran in {wall:.2f}s"
                    )
                    print(f"  ok   {label} ({what})")
        finally:
            os.chdir(before)
    return failures


def run_example(root: str, rel: str, verbose: bool = True) -> list:
    """Execute one example script in a subprocess; failures as in
    :func:`run_file`."""
    script = os.path.join(root, rel)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="docs-as-tests-") as scratch:
        proc = subprocess.run(
            [sys.executable, script], cwd=scratch, env=env,
            capture_output=True, text=True, timeout=600,
        )
    if proc.returncode != 0:
        if verbose:
            print(f"  FAIL {rel}")
        return [(rel, f"exit code {proc.returncode}\n{proc.stdout}"
                      f"\n{proc.stderr}")]
    if verbose:
        print(f"  ok   {rel} (ran in {time.perf_counter() - start:.2f}s)")
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Smoke-execute fenced python blocks in docs/ + README."
    )
    parser.add_argument(
        "paths", nargs="*",
        help="markdown files to check (default: README.md + docs/*.md)",
    )
    parser.add_argument(
        "--root", default=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ),
        help="repository root (default: this script's parent)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only report failures",
    )
    args = parser.parse_args(argv)

    paths = args.paths or doc_files(args.root)
    all_failures = []
    checked = 0
    for path in paths:
        if not args.quiet:
            print(f"{os.path.relpath(path, start=args.root)}:")
        checked += 1
        all_failures.extend(run_file(path, verbose=not args.quiet))
    if not args.paths:
        for rel in EXAMPLE_SCRIPTS:
            if not args.quiet:
                print(f"{rel}:")
            checked += 1
            all_failures.extend(
                run_example(args.root, rel, verbose=not args.quiet)
            )
    if all_failures:
        print(f"\n{len(all_failures)} doc block(s) failed:")
        for label, trace in all_failures:
            print(f"\n--- {label} ---\n{trace}")
        return 1
    if not args.quiet:
        print(f"\nall python blocks across {checked} file(s) pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
