#!/usr/bin/env bash
# Build the benchmark harness with bare `rustc -O`: no cargo, no network.
#
# Every measured function is compiled from its file under crates/. Two
# things stand between the warehouse's durability files and a std-only
# build, and each is guarded so it cannot drift silently:
#
#   1. crates/warehouse/src/disk/mod.rs declares `pub mod spill;`, and
#      spill.rs needs serde_json. The harness compiles a generated copy of
#      mod.rs without that one line; the build fails unless the diff
#      against the original is exactly that line.
#   2. error.rs/storage.rs/disk import `crate::binlog::LogPosition`, and
#      binlog.rs needs serde. The harness carries a stand-in with the same
#      two fields; the build fails unless binlog.rs still declares exactly
#      those fields.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out=bench/out
gen="$out/gen/disk"
mkdir -p "$gen"
started=$(date +%s.%N)

die() { echo "bench/build.sh: $*" >&2; exit 1; }

for f in crates/gateway/src/{http,limit,pool,etag,config}.rs \
         crates/warehouse/src/{checksum,error,storage,binlog}.rs \
         crates/warehouse/src/disk/{mod,format}.rs \
         crates/{telemetry,chaos,check,alerts}/src/lib.rs; do
  [ -f "$f" ] || die "missing program source $f (run from a full checkout)"
done

# Guard 1: the disk/mod.rs copy differs from the original by one line.
disk_src=crates/warehouse/src/disk/mod.rs
sed '/^pub mod spill;$/d' "$disk_src" > "$gen/mod.rs"
delta="$(diff "$disk_src" "$gen/mod.rs" | grep '^[<>]' || true)"
[ "$delta" = "< pub mod spill;" ] \
  || die "generated disk/mod.rs must differ from $disk_src by exactly '< pub mod spill;', got: '$delta'"
grep -q 'spill' "$gen/mod.rs" \
  && die "$disk_src refers to spill outside its mod declaration; the copy would not build the real code"
# format.rs is compiled from its own file: the copy's `pub mod format;`
# resolves to this link.
ln -sf "$root/crates/warehouse/src/disk/format.rs" "$gen/format.rs"

# Guard 2: the LogPosition stand-in has the fields binlog.rs declares.
fields_of() {
  awk '/^pub struct LogPosition \{/{on=1; next} on && /^\}/{exit} on && /^ *pub [a-z_]+: /{print $2, $3}' "$1"
}
want="$(fields_of crates/warehouse/src/binlog.rs)"
have="$(fields_of bench/harness/binlog.rs)"
[ -n "$want" ] || die "could not find 'pub struct LogPosition' in crates/warehouse/src/binlog.rs"
[ "$want" = "$have" ] \
  || die "LogPosition stand-in fields differ from crates/warehouse/src/binlog.rs: want '$want', have '$have'"

rlib() { # rlib <crate_name> <src> [--extern ...]
  local name="$1" src="$2"; shift 2
  rustc --edition 2021 -O --crate-type lib --crate-name "$name" "$src" \
    --cap-lints allow -o "$out/lib$name.rlib" "$@"
}
rlib xdmod_telemetry crates/telemetry/src/lib.rs &
rlib xdmod_chaos crates/chaos/src/lib.rs &
rlib xdmod_check crates/check/src/lib.rs &
rlib xdmod_alerts crates/alerts/src/lib.rs &
fail=0
for job in $(jobs -p); do wait "$job" || fail=1; done
[ "$fail" = 0 ] || die "building a std-only crate failed"

rustc --edition 2021 -O --crate-name xdmod_bench bench/harness/main.rs \
  --extern xdmod_telemetry="$out/libxdmod_telemetry.rlib" \
  --extern xdmod_chaos="$out/libxdmod_chaos.rlib" \
  --extern xdmod_check="$out/libxdmod_check.rlib" \
  --extern xdmod_alerts="$out/libxdmod_alerts.rlib" \
  -o "$out/xdmod-bench.tmp"
mv "$out/xdmod-bench.tmp" "$out/xdmod-bench"

rustc --version > "$out/rustc_version"
awk -v a="$started" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f\n", b - a }' > "$out/build_s"
echo "bench/build.sh: built $out/xdmod-bench in $(cat "$out/build_s") s ($(rustc --version))" >&2
