"""Record the nested-random verdicts at the default seed.

    python3 benchmarks/record_reference.py

The file is a regression reference, not an independent decision: depth >= 2
sequents have no second decision procedure here. Re-record it only in a
change that explains why verdicts moved.
"""

import json

import run
import workloads


def main():
    dl = run.import_deolog()
    regime = dl.regimes.DeltaRegime(0)
    verdicts = {}
    for text in workloads.nested_random_sequents(dl, workloads.DEFAULT_SEED):
        sequent = dl.engine.Sequent.parse(text)
        verdicts[text] = dl.engine.check(sequent, regime).kind
    doc = {"about": "nested-random verdicts in delta:0 at the default seed; "
                    "a regression reference, not an independent decision",
           "seed": workloads.DEFAULT_SEED, "verdicts": verdicts}
    workloads.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
