#!/bin/sh
# Writes the verdict files of the bundled configs into DIR (default
# references/verdicts): summary.txt, thresholds.txt and thresholds.csv of each
# run config, sweep.csv of the shipped sweep, and numpy-version.txt, the numpy
# they were made with. Run it from the repository root:
#
#   sh references/regenerate.sh                        # re-bless the committed files
#   sh references/regenerate.sh /tmp/v && diff -r references/verdicts /tmp/v
#
# These files keep their bytes across numpy's SIMD dispatch levels; the
# trajectory columns computed with log, log1p or trig functions do not, which
# is why trajectory.csv is not among them.
set -u
out=${1:-references/verdicts}
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
for name in blowup_probe c1_no_mitosis c2_logistic chi_zero heat_oracle r3_strong_damping; do
    python3 -m angiosim.cli run "configs/$name.cfg" --out "$out/$name" --quiet
    status=$?
    # blowup_probe ends in its documented blow-up, exit 2
    if [ "$status" -ne 0 ] && [ "$status" -ne 2 ]; then
        echo "run configs/$name.cfg exited $status" >&2
        exit 1
    fi
    rm -f "$out/$name/trajectory.csv"
done
python3 -m angiosim.cli sweep configs/sweep_chi_mu.cfg --out "$out/sweep_chi_mu" --quiet || exit 1
python3 -c 'import numpy; print(numpy.__version__)' > "$out/numpy-version.txt"
