#!/usr/bin/env bash
# Checks that `poqsim <protocol> --help` keeps every knob name apart from
# its help text, for every registered protocol: the first token after
# "--" on each knob line must be a knob name the registry declares.
#
# Usage: cli_help_columns.sh PATH/TO/poqsim
set -eu
poqsim="$1"
names=$("$poqsim" list --json | sed -n 's/^ *"name": "\([^"]*\)".*/\1/p')
for protocol in $("$poqsim" list | cut -d' ' -f1); do
  tokens=$("$poqsim" "$protocol" --help |
    sed -n '/^knobs:$/,/^common options:$/s/^  --\([^ ]*\).*/\1/p')
  [ -n "$tokens" ] || { echo "$protocol: --help lists no knobs"; exit 1; }
  for token in $tokens; do
    if ! grep -qxF -- "$token" <<<"$names"; then
      echo "$protocol: '--$token' is not a knob; its name runs into the help text"
      exit 1
    fi
  done
done
echo "HELP COLUMNS PASS"
