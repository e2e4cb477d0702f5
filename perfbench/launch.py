"""One cold start, as every `layercap` command pays it: a fresh interpreter
imports the CLI and loads a spec file.

    python3 perfbench/launch.py [SPEC]

Prints the host-speed reference times sampled meanwhile (see speed.py) as
a JSON list.
"""

import json
import sys

import speed  # before layercap; see speed.py

if __name__ == "__main__":
    sampler = speed.Sampler()
    sampler.start()
    from layercap import cli

    if len(sys.argv) > 1:
        cli.load_spec_file(sys.argv[1])
    sampler.stop()
    # a launch shorter than the sampling interval still reads the host once
    print(json.dumps([ns for _, ns in sampler.samples] or [speed.reference()]))
