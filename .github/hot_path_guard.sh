#!/bin/sh
# Hot-path C-call guard: every compiled call's allocation sites and the
# clause-dispatch walk must allocate inline and make no C call (in OCaml 5
# each C call switches to the C stack).  Disassembles the objects that
# hold them and fails if any listed function body references
# caml_c_call, caml_make_vect, caml_array_sub, caml_array_fill or a
# Stdlib.Array function, or if a listed function is missing (a rename
# must update this list, not slip past it).  The binding primitive
# (Unify.bind and Trail.push) is listed too, and so is a fact store's
# path: the argument-index probe (Store.select and its helpers), the
# row try (Store.unify_row, Kernel.try_row) and the row scan
# (Kernel.rows, Kernel.next_alt).
#
# The answer encoder is held to the same rule, and to one more: the
# reply writer, Json's string and integer writers and Pp's term walk
# write straight into a buffer, so none of them may reference Printf,
# Format or CamlinternalFormat either (formatted printing stays on
# Json's cold path for numbers that are not small integers).
#
#   sh .github/hot_path_guard.sh [build-dir]    (default: _build/default)
#
# Run after `dune build`; the default profile is the optimized one.
set -eu
b=${1:-_build/default}

check() {
  obj=$1
  prefix=$2
  shift 2
  objdump -dr "$obj" | awk -v prefix="$prefix" -v names="$*" '
    BEGIN {
      n = split(names, want, " ")
      for (i = 1; i <= n; i++) seen[want[i]] = 0
      bad = 0
    }
    /^[0-9a-f]+ <.*>:$/ {
      sym = $2
      sub(/^</, "", sym)
      sub(/>:$/, "", sym)
      cur = ""
      for (i = 1; i <= n; i++)
        if (sym ~ ("^" prefix "\\." want[i] "_[0-9]+$")) {
          cur = want[i]
          seen[cur] = 1
        }
      next
    }
    cur != "" && /caml_c_call|caml_make_vect|caml_array_sub|caml_array_fill|camlStdlib__Array|camlStdlib__Printf|camlStdlib__Format|camlCamlinternalFormat/ {
      print "hot-path C call or formatted printing in " prefix "." cur ": " $0 > "/dev/stderr"
      bad = 1
    }
    END {
      for (i = 1; i <= n; i++)
        if (!seen[want[i]]) {
          print "hot-path guard: no function " prefix "." want[i] " in the object" > "/dev/stderr"
          bad = 1
        }
      exit bad
    }'
}

status=0
check "$b/lib/lang/.ace_lang.objs/native/ace_lang__Code.o" camlAce_lang__Code \
  frame scratch_frame exec_top exec_sub build_put build_cells load_regs || status=1
check "$b/lib/core/.ace_core.objs/native/ace_core__Kernel.o" camlAce_core__Kernel \
  goal_of_regs try_row rows next_alt next_clause || status=1
check "$b/lib/lang/.ace_lang.objs/native/ace_lang__Database.o" camlAce_lang__Database \
  walk at_path at_path_from lookup lookup_args candidates candidates_code find_code || status=1
check "$b/lib/lang/.ace_lang.objs/native/ace_lang__Case.o" camlAce_lang__Case \
  slot slot_from case_tag case_value || status=1
check "$b/lib/lang/.ace_lang.objs/native/ace_lang__Store.o" camlAce_lang__Store \
  select select_from probe row_at unify_row unify_from || status=1
check "$b/lib/term/.ace_term.objs/native/ace_term__Term.o" camlAce_term__Term \
  copy_resolved resolve map_cells cells prefix || status=1
# the binding path: the watermark compare stays inline and [Trail.grow]
# (which calls Array.make) stays out of line
check "$b/lib/term/.ace_term.objs/native/ace_term__Trail.o" camlAce_term__Trail \
  push || status=1
check "$b/lib/term/.ace_term.objs/native/ace_term__Unify.o" camlAce_term__Unify \
  bind || status=1
# the answer encoder
check "$b/lib/serve/.ace_server.objs/native/ace_server__Protocol.o" camlAce_server__Protocol \
  add_answer || status=1
check "$b/lib/obs/.ace_obs.objs/native/ace_obs__Json.o" camlAce_obs__Json \
  add_string add_escape add_int || status=1
check "$b/lib/term/.ace_term.objs/native/ace_term__Pp.o" camlAce_term__Pp \
  add_prio add_compound add_tail add_var add_int || status=1
if [ "$status" -eq 0 ]; then echo "hot-path guard: no C call or formatted printing in the listed functions"; fi
exit "$status"
