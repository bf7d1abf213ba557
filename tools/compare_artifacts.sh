#!/usr/bin/env bash
# Run one fixed set of vora CLI flows on git revision REV and on the working
# tree, then compare what the two runs wrote, artifact by artifact.
#
#   tools/compare_artifacts.sh REV
#
# Prints "same" or "DIFFERS" per artifact and exits 1 on any difference.
# A differing .json/.jsonl artifact is followed by the worst absolute
# difference over its numeric fields, a differing .vora checkpoint by the
# worst absolute tensor difference, so float32 reassociation (tiny) can be
# told from a fault (large, or a changed structure). Any other differing
# artifact (gradcheck.txt, report.csv, ...) is followed by a unified diff of
# the two files, indented, so the changed lines show.
# config.resolved is compared without its "# written:" timestamp line.
# The last line gives the src/vora line count of REV and of the working tree.
# BLAS runs on one thread, and vora is imported from each tree's src/.
set -euo pipefail

rev=${1:?usage: tools/compare_artifacts.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev" "$tmp/cfg"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1

common="seed=0\ntotal_steps=20\nwarmup_steps=5\n"
printf "$common" > "$tmp/cfg/default.cfg"
printf "${common}anyres=true\nteacher_warm=true\nteacher_warm_steps=3\n" > "$tmp/cfg/anyres.cfg"
printf "${common}mode=full_llm_unstable\n" > "$tmp/cfg/probe.cfg"
printf "${common}distill_mode=last_block\n" > "$tmp/cfg/last_block.cfg"
printf "${common}eval_captions=1\n" > "$tmp/cfg/one.cfg"
printf "${common}eval_max_new=100\n" > "$tmp/cfg/long.cfg"
# non-default float and string keys, read through the parsers of their field types
printf "${common}lr=0.0005\nweight_decay=0.0\nimage_fraction=0.75\nmask_mode=causal\n" > "$tmp/cfg/typed.cfg"
printf "${common}anyres=true\nablate_masks=hybrid,causal\nablate_distills=none,last_block,block_wise\nablate_steps=6\n" \
    > "$tmp/cfg/ablate.cfg"

flows() {  # flows SRC OUT: every flow with vora from SRC, artifacts under OUT
    local src=$1 out=$2 cfg=$tmp/cfg
    vora() { (cd "$out" && PYTHONPATH="$src" python3 -m vora.cli "$@"); }
    mkdir -p "$out"
    vora pretrain "$cfg/default.cfg" pretrain
    vora pretrain "$cfg/anyres.cfg" anyres
    vora pretrain "$cfg/probe.cfg" probe
    vora pretrain "$cfg/last_block.cfg" last_block
    vora pretrain "$cfg/typed.cfg" typed
    vora finetune pretrain/checkpoint.vora "$cfg/default.cfg" finetune
    vora merge pretrain/checkpoint.vora merged.vora
    vora merge anyres/checkpoint.vora anyres_merged.vora
    vora eval pretrain/checkpoint.vora "$cfg/default.cfg" > "$out/eval_pretrain.json"
    vora eval merged.vora "$cfg/default.cfg" > "$out/eval_merged.json"
    vora eval anyres/checkpoint.vora "$cfg/anyres.cfg" > "$out/eval_anyres.json"
    vora eval finetune/checkpoint.vora "$cfg/default.cfg" > "$out/eval_finetune.json"
    vora eval probe/checkpoint.vora "$cfg/probe.cfg" > "$out/eval_probe.json"
    vora eval pretrain/checkpoint.vora "$cfg/one.cfg" > "$out/eval_one.json"  # a batch of one caption
    # a decode budget of 100 tokens, well past the 24 of the default
    vora eval pretrain/checkpoint.vora "$cfg/long.cfg" > "$out/eval_long.json"
    # the default (block_wise) run config on a last_block checkpoint
    vora eval last_block/checkpoint.vora "$cfg/default.cfg" > "$out/eval_last_block.json"
    vora eval typed/checkpoint.vora "$cfg/typed.cfg" > "$out/eval_typed.json"
    vora ablate "$cfg/ablate.cfg" ablate
    vora gradcheck "$cfg/default.cfg" > "$out/gradcheck.txt"
}

echo "running the flows on $rev ..." >&2
flows "$tmp/rev/src" "$tmp/out_rev" 2> "$tmp/rev.log" || { cat "$tmp/rev.log" >&2; exit 2; }
echo "running the flows on the working tree ..." >&2
flows "$root/src" "$tmp/out_tree" 2> "$tmp/tree.log" || { cat "$tmp/tree.log" >&2; exit 2; }

worst_diff() {  # worst_diff A B: the worst absolute numeric difference of two artifacts
    PYTHONPATH="$root/src" python3 - "$1" "$2" <<'PY'
import json, sys

import numpy as np

from vora import checkpoint


def leaves(x, path=""):
    """path -> value for every scalar field of a parsed JSON document."""
    if isinstance(x, dict):
        return {k: v for key, val in x.items() for k, v in leaves(val, f"{path}.{key}").items()}
    if isinstance(x, list):
        return {k: v for i, val in enumerate(x) for k, v in leaves(val, f"{path}[{i}]").items()}
    return {path: x}


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def worst_field(a, b):
    if a.keys() != b.keys():
        return "fields differ"
    nums = [k for k in a if is_num(a[k]) and is_num(b[k])]
    if any(a[k] != b[k] for k in a.keys() - set(nums)):
        return "non-numeric fields differ"
    key = max(nums, key=lambda k: abs(a[k] - b[k]), default=None)
    return "no numeric fields" if key is None else f"worst abs diff {abs(a[key] - b[key]):.3g} ({key})"


def worst_tensor(a, b):
    (cfg_a, ta, _), (cfg_b, tb, _) = checkpoint.load(a), checkpoint.load(b)
    if cfg_a != cfg_b or ta.keys() != tb.keys() or any(ta[n].shape != tb[n].shape for n in ta):
        return "config, tensor names or shapes differ"
    diff = {n: float(np.abs(ta[n] - tb[n]).max(initial=0.0)) for n in ta}
    name = max(diff, key=diff.get)
    return f"worst abs tensor diff {diff[name]:.3g} ({name})"


def parse(path):
    with open(path) as f:
        if path.endswith(".jsonl"):
            return leaves([json.loads(line) for line in f if line.strip()])
        return leaves(json.load(f))


a, b = sys.argv[1:]
try:
    print(worst_tensor(a, b) if a.endswith(".vora") else worst_field(parse(a), parse(b)))
except (OSError, ValueError) as exc:  # CheckpointError and JSONDecodeError are ValueErrors
    print(f"unreadable: {exc}")
PY
}

view() {  # view FILE: the artifact as compared
    if [[ $1 == */config.resolved ]]; then grep -v '^# written:' "$1"; else cat "$1"; fi
}

status=0
while read -r name; do
    a=$tmp/out_rev/$name b=$tmp/out_tree/$name
    same=$( [[ -f $a && -f $b ]] && cmp -s <(view "$a") <(view "$b") && echo y || echo n)
    if [[ $same == y ]]; then echo "same     $name"; continue; fi
    status=1
    if [[ ! -f $a || ! -f $b ]]; then
        echo "DIFFERS  $name (only in $([[ -f $a ]] && echo "$rev" || echo "the working tree"))"
    elif [[ $name =~ \.(json|jsonl|vora)$ ]]; then
        echo "DIFFERS  $name: $(worst_diff "$a" "$b")"
    else
        echo "DIFFERS  $name:"
        diff -u --label "$rev/$name" --label "tree/$name" <(view "$a") <(view "$b") | sed 's/^/    /' || true
    fi
done < <( (cd "$tmp/out_rev" && find . -type f; cd "$tmp/out_tree" && find . -type f) | sed 's|^\./||' | sort -u)
lines() { cat "$1"/src/vora/*.py | wc -l; }
echo "src/vora lines: $(lines "$tmp/rev") at $rev, $(lines "$root") in the working tree"
exit $status
