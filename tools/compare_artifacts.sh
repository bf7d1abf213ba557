#!/usr/bin/env bash
# Run one fixed set of vora CLI flows on git revision REV and on the working
# tree, then compare what the two runs wrote, artifact by artifact.
#
#   tools/compare_artifacts.sh REV
#
# Prints "same" or "DIFFERS" per artifact and exits 1 on any difference.
# config.resolved is compared without its "# written:" timestamp line.
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
printf "${common}anyres=true\nablate_masks=hybrid,causal\nablate_distills=none,last_block,block_wise\nablate_steps=6\n" \
    > "$tmp/cfg/ablate.cfg"

flows() {  # flows SRC OUT: every flow with vora from SRC, artifacts under OUT
    local src=$1 out=$2 cfg=$tmp/cfg
    vora() { (cd "$out" && PYTHONPATH="$src" python3 -m vora.cli "$@"); }
    mkdir -p "$out"
    vora pretrain "$cfg/default.cfg" pretrain
    vora pretrain "$cfg/anyres.cfg" anyres
    vora pretrain "$cfg/probe.cfg" probe
    vora finetune pretrain/checkpoint.vora "$cfg/default.cfg" finetune
    vora merge pretrain/checkpoint.vora merged.vora
    vora merge anyres/checkpoint.vora anyres_merged.vora
    vora eval pretrain/checkpoint.vora "$cfg/default.cfg" > "$out/eval_pretrain.json"
    vora eval merged.vora "$cfg/default.cfg" > "$out/eval_merged.json"
    vora eval anyres/checkpoint.vora "$cfg/anyres.cfg" > "$out/eval_anyres.json"
    vora eval finetune/checkpoint.vora "$cfg/default.cfg" > "$out/eval_finetune.json"
    vora eval probe/checkpoint.vora "$cfg/probe.cfg" > "$out/eval_probe.json"
    vora ablate "$cfg/ablate.cfg" ablate
    vora gradcheck "$cfg/default.cfg" > "$out/gradcheck.txt"
}

echo "running the flows on $rev ..." >&2
flows "$tmp/rev/src" "$tmp/out_rev" 2> "$tmp/rev.log" || { cat "$tmp/rev.log" >&2; exit 2; }
echo "running the flows on the working tree ..." >&2
flows "$root/src" "$tmp/out_tree" 2> "$tmp/tree.log" || { cat "$tmp/tree.log" >&2; exit 2; }

status=0
while read -r name; do
    a=$tmp/out_rev/$name b=$tmp/out_tree/$name
    if [[ $name == */config.resolved ]]; then
        same=$(cmp -s <(grep -v '^# written:' "$a") <(grep -v '^# written:' "$b") && echo y || echo n)
    else
        same=$( [[ -f $a && -f $b ]] && cmp -s "$a" "$b" && echo y || echo n)
    fi
    if [[ $same == y ]]; then echo "same     $name"; else echo "DIFFERS  $name"; status=1; fi
done < <( (cd "$tmp/out_rev" && find . -type f; cd "$tmp/out_tree" && find . -type f) | sed 's|^\./||' | sort -u)
exit $status
