#!/usr/bin/env bash
# Pins of the command-line tool: deterministic round trips through both
# kernels whose pool, output, trace and statistics bytes are fixed, and
# two refusals.
#
# Usage: ci/entry_point.sh DIR
# Runs in DIR, which it fills with its files. The tool is called as
# $PERMWHITE (default: permwhite, the installed script); `python` must
# import permwhite.
set -euo pipefail

PERMWHITE=${PERMWHITE:-permwhite}
# Unquoted, as PERMWHITE may hold a command line; `command` skips this function.
permwhite() { command $PERMWHITE "$@"; }

cd "$1"
permwhite gen-pool --help > /dev/null
permwhite whiten --help > /dev/null
# A deterministic round trip: the pool, output and trace bytes are pinned.
python -c 'import sys; from permwhite.entropy import CounterSource; sys.stdout.buffer.write(CounterSource("ci-in").read_bytes(100003))' > in.bin
permwhite gen-pool ci.pool --n-qubits 10 --count 8 --source det
permwhite whiten in.bin white.bin --pool ci.pool --trace run.trace --source det
sha256sum -c - <<'SUMS'
c0782fbba141ec0323b18c632e5fffc7e3a63e367a237e97073bd83d4b458fbb  ci.pool
4b7acd095a32c0fb6cf72db39180b8f99eb333c917b176486867a95f0a952f69  white.bin
12376daa51a809f000fef003fb15acf93321040807617cf3148e262071f73471  run.trace
SUMS
permwhite unwhiten white.bin back.bin --pool ci.pool --trace run.trace
cmp in.bin back.bin
# The same round trip through pipes, whose reads come short of a block:
# 100,003 bytes are more than a pipe holds.
cat in.bin | permwhite whiten /dev/stdin pwhite.bin --pool ci.pool --trace p.trace --source det
cmp pwhite.bin white.bin
cmp p.trace run.trace
cat white.bin | permwhite unwhiten /dev/stdin pback.bin --pool ci.pool --trace run.trace
cmp pback.bin in.bin
# A round trip through the table kernel: 8-bit chunks, 5 members.
permwhite gen-pool small.pool --n-qubits 3 --count 5 --source det
permwhite whiten in.bin swhite.bin --pool small.pool --trace s.trace --source det
sha256sum -c - <<'SUMS'
da64e1235196939b10a8cc6d060ecbcea7c9db9fdd5ef8f4ae55fb3e28416b4e  small.pool
9b60de59ca1f2b327216af0fc623826ab4a887b4632301dde263d4717fc65cc4  swhite.bin
536f28623a9c88a4c23b44b9b5565e458fcfb5aa44036273a3f101f7843f2102  s.trace
SUMS
permwhite unwhiten swhite.bin sback.bin --pool small.pool --trace s.trace
cmp in.bin sback.bin
# The same table-kernel round trip through pipes: each block is filled
# from short reads.
cat in.bin | permwhite whiten /dev/stdin pswhite.bin --pool small.pool --trace ps.trace --source det
cmp pswhite.bin swhite.bin
cmp ps.trace s.trace
cat swhite.bin | permwhite unwhiten /dev/stdin psback.bin --pool small.pool --trace s.trace
cmp psback.bin in.bin
# analyze imports scipy only after its pass; compare never does.
permwhite analyze white.bin --csv r.csv > /dev/null
test -s r.csv
# The integer rows come from the pinned white.bin alone, so they
# do not depend on the numpy or scipy version; nor do serial
# correlation and Monte Carlo pi, each one Python division of
# exact integer sums.
grep -qx "byte_count,100003" r.csv
grep -qx "bit_count,800024" r.csv
grep -qx "ones_count,400180" r.csv
grep -qx "serial_correlation,-0.012641257443903525" r.csv
grep -qx "monte_carlo_pi,3.1367372652546948" r.csv
# A regular file of more than one read is read as two halves at once;
# a pipe is read in one pass. Both must give the same report.
python -c 'import sys; from permwhite.entropy import CounterSource; sys.stdout.buffer.write(CounterSource("ci-split").read_bytes((2 << 20) + 7))' > big.bin
permwhite analyze big.bin --csv split.csv > /dev/null
cat big.bin | permwhite analyze /dev/stdin --csv pipe.csv > /dev/null
cmp split.csv pipe.csv
grep -qx "byte_count,2097159" split.csv
grep -qx "bit_count,16777272" split.csv
grep -qx "ones_count,8390055" split.csv
grep -qx "serial_correlation,0.00041973800210967996" split.csv
grep -qx "monte_carlo_pi,3.1400010299662973" split.csv
# in.bin is 100,003 bytes, so its last read ends on an odd byte,
# which the pair histogram adds by hand; fig.csv pins the
# chi-square and mean of both files' histograms. compare also
# runs the float32 Monte Carlo screen under the installed numpy's casting.
permwhite compare in.bin white.bin --figure-csv fig.csv > /dev/null
sha256sum -c - <<'SUMS'
f08fcf9b4cd6f8e9d076f8ea783ada751a12868047c2967a3da84c5f7c70a112  fig.csv
SUMS
# vn places uint64-shifted fields with float64 bincounts; its bit
# count and bytes are pinned under every numpy version.
test "$(permwhite vn in.bin vn.bin 2>&1)" = "wrote vn.bin: 199940 bits"
sha256sum -c - <<'SUMS'
daa38b3373bf9f1abac7c899c991ba90478e2292d76354fc5ade9f65163c958c  vn.bin
SUMS
permwhite xor in.bin white.bin x.bin
sha256sum -c - <<'SUMS'
5911afe87682218c0354c22415d05f44b284ae4cb0a9a7884e2a599284b3dff8  x.bin
SUMS
# xor reads a block of its second input, then as many bytes of its
# first; with the longer input first or second, it stops at the shorter.
permwhite xor big.bin in.bin xl.bin
permwhite xor in.bin big.bin xs.bin
cmp xl.bin xs.bin
test "$(stat -c %s xl.bin)" = 100003
# The same vn, xor and compare through pipes, whose blocks are filled
# from short reads: each output matches its pin.
cat in.bin | permwhite vn /dev/stdin pvn.bin
cmp pvn.bin vn.bin
cat white.bin | permwhite xor in.bin /dev/stdin px.bin
cmp px.bin x.bin
cat white.bin | permwhite compare in.bin /dev/stdin --label-after white.bin \
    --figure-csv pfig.csv > /dev/null
cmp pfig.csv fig.csv
# An output takes the mode open() gives under the caller's umask.
(umask 027 && permwhite vn in.bin m.bin)
test "$(stat -c %a m.bin)" = 640
# unwhiten refuses a missing --trace (exit 2) before it reads the pool.
rc=0
permwhite unwhiten white.bin none.bin --pool ci.pool || rc=$?
test "$rc" -eq 2
test ! -e none.bin
# A pool of another chunk size is named as such (exit 2), before
# the chunk count of the input is compared with the trace.
permwhite gen-pool n4.pool --n-qubits 4 --count 8 --source det
rc=0
permwhite unwhiten white.bin none.bin --pool n4.pool --trace run.trace 2> err.txt || rc=$?
test "$rc" -eq 2
grep -q "chunk size" err.txt
test ! -e none.bin
