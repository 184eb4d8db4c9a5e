#!/bin/sh
# Replay an exported DAGMan description the way its jobs run: from the
# directory that holds batch.dag, each JOB in file order runs its submit
# file's arguments, unquoted, through env, and logs to logs/ there.  A failed
# job prints its stderr and stops the replay with exit 1.
#
# Usage: sh tests/replay_dagman.sh DAG_DIR
set -eu
cd "$1"
grep '^JOB ' batch.dag | while read -r _ job sub; do
  arguments=$(sed -n 's/^arguments = "\(.*\)"$/\1/p' "$sub")
  /usr/bin/env $arguments > "logs/$job.out" 2> "logs/$job.err" < /dev/null \
    || { cat "logs/$job.err"; exit 1; }
done
