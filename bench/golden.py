#!/usr/bin/env python3
"""Regenerate the committed reference results and diff them.

Runs fig3_asan_breakdown, fig7_overheads and multicore_scaling at the
settings recorded in BENCH_fig3.json, BENCH_fig7.json and
BENCH_multicore.json (kiloinsts, seeds per cell) and compares each fresh
file with the committed one byte for byte, ignoring only the top-level
"jobs" field (worker count). Exits 1 and prints a unified diff on any
other difference. Each harness picks its own worker count
(REST_BENCH_JOBS, else the hardware threads).

    python3 bench/golden.py [--build BUILD_DIR]
"""

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

HARNESSES = {
    'fig3': 'fig3_asan_breakdown',
    'fig7': 'fig7_overheads',
    'multicore': 'multicore_scaling',
}

IGNORED = re.compile(r'^  "jobs": \d+,\n', re.M)


def comparable(text):
    return IGNORED.sub('', text).splitlines(keepends=True)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument('--build', default=os.path.join(root, 'build'),
                    help='CMake build tree holding bench/ (default build)')
    args = ap.parse_args()

    failed = []
    with tempfile.TemporaryDirectory() as out:
        for figure, harness in HARNESSES.items():
            name = f'BENCH_{figure}.json'
            ref_path = os.path.join(root, name)
            with open(ref_path) as f:
                ref = f.read()
            settings = json.loads(ref)
            env = dict(os.environ,
                       REST_BENCH_KILOINSTS=str(settings['kiloinsts']),
                       REST_BENCH_SEEDS=str(settings['seeds_per_cell']))
            fresh_path = os.path.join(out, name)
            subprocess.run([os.path.join(args.build, 'bench', harness),
                            '--json', fresh_path],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            with open(fresh_path) as f:
                fresh = f.read()
            diff = list(difflib.unified_diff(
                comparable(ref), comparable(fresh),
                fromfile=f'committed/{name}', tofile=f'fresh/{name}'))
            if diff:
                failed.append(name)
                sys.stdout.writelines(diff)
            print(f'{name}: {"DIFFERS" if diff else "identical"}')

    if failed:
        print('golden: regenerated results differ from ' + ', '.join(failed))
        return 1
    print('golden: ok')
    return 0


if __name__ == '__main__':
    sys.exit(main())
