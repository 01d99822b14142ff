#!/usr/bin/env bash
# Print the 16-character sha256 prefix of the stdout of each pinned command,
# one line each, run against the package sources under SRC (default: src).
#
#   tools/pinned.sh [SRC]
#
# Every command runs with OPENBLAS_NUM_THREADS=1. A failed command prints
# e3b0c44298fc1c14, the prefix of empty stdout. The bytes can differ across
# CPUs and numpy builds (README), so compare lines only within one machine.
set -u -o pipefail
src=$(cd "${1:-src}" && pwd) || exit 2
export OPENBLAS_NUM_THREADS=1

run() {
    PYTHONPATH="$src" python -m paircert "$@" 2>/dev/null | sha256sum | cut -c1-16
}

run reproduce --threads 1
run reproduce --threads 2
run certify --graph torus:3 --lambda 0.7 --gamma 1.3 --p 30 --seed 11
run certify --graph torus:3 --lambda 1 --gamma 1 --p 200 --seed 1
run certify --graph torus:4 --lambda 1.5 --gamma 0.75 --p 40 --seed 0xabc --threads 3
run certify --graph torus:4 --lambda 1 --gamma 1 --p 30 --seed 5 --h poly:0,0,1
run certify --graph torus:3 --lambda 1 --gamma 1 --p 20 --seed 6 --h poly:0,0,1
run certify --graph torus:5 --lambda 0.7 --gamma 1.3 --p 30 --seed 11
run certify --graph torus:6 --lambda 1 --gamma 1 --p 60 --seed 1 --h poly:0,0,1
run certify --graph torus:20 --lambda 1 --gamma 1 --p 6 --seed 2 --threads 2
run certify --graph torus:3 --lambda 0.7 --gamma 1.3 --p 25 --seed 9 --h exp:0.3 --threads 3
run certify --graph torus:5 --lambda 1.2 --gamma 0.8 --p 20 --seed 4 --h poly:1,-2,0.5
run bench --graph torus:10 --lambda 1 --gamma 1 --p 16 --seed 3
run oracle --graph torus:3 --lambda 1 --gamma 1
run oracle --graph torus:4 --lambda 1.3 --gamma 1
run oracle --graph torus:3 --lambda 1 --gamma 1 --h exp:0.1
run oracle --graph torus:4 --lambda 0.9 --gamma 1.1 --h poly:0,1,1
run certify --graph torus:3 --lambda 1 --gamma 1 --p 1001 --seed 1
