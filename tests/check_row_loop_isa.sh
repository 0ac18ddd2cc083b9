#!/bin/sh
# Checks the Landau row loop's AVX2 clone (landau::detail::inner_row_avx2,
# src/core/landau_tensor.cpp) in the built library:
#  * it must be vectorized 4-wide: %ymm vsqrtpd and %ymm vdivpd present;
#  * it must not fuse multiply-adds: no vfmadd/vfmsub/vfnmadd/vfnmsub, so
#    its per-pair arithmetic stays the baseline clone's (-ffp-contract=off).
# A flag or attribute change that leaves the clone scalar, or lets
# contraction back in, fails here.
#
# usage: check_row_loop_isa.sh <path to libland archive> [objdump]
# Exits 77 (skipped) without objdump or off x86.

lib=$1
objdump=${2:-objdump}
sym=_ZN6landau6detail14inner_row_avx2EddRKNS0_9SourceRunE

if ! command -v "$objdump" >/dev/null 2>&1; then
  echo "objdump not found: skipped"
  exit 77
fi
case "$(uname -m)" in
  x86_64 | i?86) ;;
  *) echo "not an x86 host, no AVX2 clone: skipped"; exit 77 ;;
esac

dis=$("$objdump" -d --no-show-raw-insn "$lib" |
      awk -v label="<$sym>:" 'index($0, label) { f = 1; next } f && /^$/ { exit } f')
if [ -z "$dis" ]; then
  echo "FAIL: $sym not found in $lib"
  exit 1
fi

status=0
for op in vsqrtpd vdivpd; do
  n=$(printf '%s\n' "$dis" | grep -Ec "$op.*%ymm")
  echo "$op on %ymm: $n"
  if [ "$n" -eq 0 ]; then
    echo "FAIL: no 4-wide $op in the AVX2 clone"
    status=1
  fi
done
n=$(printf '%s\n' "$dis" | grep -Ec 'vfn?m(add|sub)')
echo "fused multiply-adds: $n"
if [ "$n" -ne 0 ]; then
  echo "FAIL: the AVX2 clone contracts products and sums into FMAs"
  status=1
fi
exit $status
