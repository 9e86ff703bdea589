#!/bin/sh
# Print the promoter's output fingerprints, one "KIND TARGET MD5" line
# each, in the order of test/golden/fingerprints.txt:
#
#   dump            rpromote dump TARGET            (promoted IR)
#   dump-scalrep    rpromote dump TARGET --scalrep
#   report          rpromote promote TARGET --deterministic --json -
#   report-scalrep  the same with --scalrep
#   spill6          the same with --regs 6 --spill-order
#
# Usage: sh test/golden/fingerprints.sh [RPROMOTE]
#   sh test/golden/fingerprints.sh | diff test/golden/fingerprints.txt -
# RPROMOTE defaults to the dune build of bin/rpromote.exe.
set -eu
RP=${1:-./_build/default/bin/rpromote.exe}
SEEDS="go li ijpeg perl m88k sc compr vortex blur dot lpc"
SCALREP="blur dot lpc"
GEN="gen60 gen120 gen240 gen480"
SPILL="go m88k gen120"
sum() { md5sum | cut -d' ' -f1; }
for w in $SEEDS $GEN; do
  echo "dump $w $("$RP" dump "$w" | sum)"
done
for w in $SCALREP; do
  echo "dump-scalrep $w $("$RP" dump "$w" --scalrep | sum)"
done
for w in $SEEDS $GEN; do
  echo "report $w $("$RP" promote "$w" --deterministic --json - | sum)"
done
for w in $SCALREP; do
  echo "report-scalrep $w $("$RP" promote "$w" --scalrep --deterministic --json - | sum)"
done
for w in $SPILL; do
  echo "spill6 $w $("$RP" promote "$w" --regs 6 --spill-order --deterministic --json - | sum)"
done
