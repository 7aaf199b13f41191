#!/bin/sh
# Writes the verdict files of the bundled configs into DIR (default
# references/verdicts): summary.txt, thresholds.txt and thresholds.csv of each
# run config, trajectory.sha256 with a digest per trajectory column and
# functionals.csv with the t, F1 and F2 columns, sweep.csv of each bundled sweep,
# verify/inequalities.csv and verify/report.txt (verify's PASS/FAIL lines), and
# numpy-version.txt, the numpy they were made with. Run it from the repository
# root:
#
#   sh references/regenerate.sh                        # re-bless the committed files
#   sh references/regenerate.sh /tmp/v && python3 references/compare.py references/verdicts /tmp/v
#
# compare.py wants every file byte for byte except the numbers that can move
# their last bit on another numpy SIMD level: F1 and F2, computed with log and
# log1p, and verify's lhs, rhs and margin, which it compares within 1e-14 of
# max(|x|, the largest |x| of x's column). F1 and F2 have no digest, and trajectory.csv itself is deleted once
# its digests and functionals.csv are written.
set -u
out=${1:-references/verdicts}
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# column_digests CSV: one line "<column> <sha256>" per column of CSV except F1
# and F2, the digest taken over the column's cells below its header, one a line
column_digests() {
    i=0
    for column in $(head -n 1 "$1" | tr ',' ' '); do
        i=$((i + 1))
        case $column in F1|F2) continue ;; esac
        echo "$column $(tail -n +2 "$1" | cut -d, -f "$i" | sha256sum | cut -d ' ' -f 1)"
    done
}

# functionals CSV: its t, F1 and F2 columns, header included
functionals() {
    i=0
    fields=""
    for column in $(head -n 1 "$1" | tr ',' ' '); do
        i=$((i + 1))
        case $column in t|F1|F2) fields="$fields${fields:+,}$i" ;; esac
    done
    cut -d, -f "$fields" "$1"
}

for name in blowup_probe c1_no_mitosis c2_logistic c2_logistic_2d chi_zero heat_oracle r3_strong_damping; do
    python3 -m angiosim.cli run "configs/$name.cfg" --out "$out/$name" --quiet
    status=$?
    # blowup_probe ends in its documented blow-up, exit 2
    if [ "$status" -ne 0 ] && [ "$status" -ne 2 ]; then
        echo "run configs/$name.cfg exited $status" >&2
        exit 1
    fi
    column_digests "$out/$name/trajectory.csv" > "$out/$name/trajectory.sha256"
    functionals "$out/$name/trajectory.csv" > "$out/$name/functionals.csv"
    rm -f "$out/$name/trajectory.csv"
done
for name in sweep_chi_mu sweep_lost_members; do
    python3 -m angiosim.cli sweep "configs/$name.cfg" --out "$out/$name" --quiet || exit 1
done
mkdir -p "$out/verify"
python3 -m angiosim.cli verify --out "$out/verify" > "$out/verify/report.txt" || exit 1
python3 -c 'import numpy; print(numpy.__version__)' > "$out/numpy-version.txt"
