#!/bin/sh
# Recorded-run scale (single core): reduced hours/repeats; see EXPERIMENTS.md.
set -e
B=./target/release
{
  echo "### table1"
  $B/table1
  echo "### table2 (DF_HOURS=48 DF_REPEATS=2)"
  DF_HOURS=48 DF_REPEATS=2 $B/table2
  echo "### table3 (DF_HOURS=12 DF_REPEATS=2)"
  DF_HOURS=12 DF_REPEATS=2 $B/table3
  echo "### fig4 (DF_HOURS=12 DF_REPEATS=2)"
  DF_HOURS=12 DF_REPEATS=2 $B/fig4
  echo "### fig5 (DF_HOURS=12 DF_REPEATS=2)"
  DF_HOURS=12 DF_REPEATS=2 $B/fig5
  echo "### driver_cov (DF_HOURS=12)"
  DF_HOURS=12 $B/driver_cov
  echo "### fleet exec_batch + sync_hot_paths (DF_BATCH_PROGS=2000 DF_BATCH=32)"
  DF_HOURS=0.2 DF_SHARDS=2 DF_SYNC_MIN=7.5 DF_PAR_SHARDS=4 DF_PAR_HOURS=0.1 \
  DF_BATCH_PROGS=2000 DF_BATCH_HOURS=0.1 $B/fleet
} > experiments_raw.txt 2>&1
grep -o '{"bench":"exec_batch".*}' experiments_raw.txt > BENCH_exec.json
grep -o '{"bench":"fleet_parallel".*}' experiments_raw.txt >> BENCH_exec.json
grep -o '{"bench":"sync_hot_paths".*}' experiments_raw.txt >> BENCH_exec.json
echo EXPERIMENTS-DONE
