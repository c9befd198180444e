#!/usr/bin/env bash
# check.sh — the pre-commit gate: gofmt, vet, build and the full test
# suite, run against the committed tree only.
#
#   scripts/check.sh
#
# It checks out HEAD into a throwaway git worktree and runs there, so a
# file that exists only in the local tree (untracked, ignored or
# unstaged) fails the check here instead of breaking the build for the
# next person who clones. Commit first, then run it. The worktree is
# removed on exit; set TMPDIR to choose where it is created.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
wt=$(mktemp -d "${TMPDIR:-/tmp}/digamma-check.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"
	git -C "$root" worktree prune
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$wt" HEAD
cd "$wt"
echo "check.sh: HEAD $(git rev-parse --short HEAD) in $wt"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "check.sh: gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go build ./... && go test ./...
echo "check.sh: ok"
