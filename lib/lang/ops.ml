(* The operator table.  This is the parsing-side twin of the printing table
   in [Ace_term.Pp]; the round-trip property test keeps them consistent.
   Lookups are by interned symbol — the parser interns each atom token once
   and reuses the symbol for both the operator probes and the term it
   builds — and read arrays indexed by symbol id, so a probe neither
   hashes nor allocates. *)

module Symbol = Ace_term.Symbol

type assoc = Xfx | Xfy | Yfx

type infix = { prio : int; assoc : assoc }

let infix_table =
  Symbol.by_id
    (List.map
       (fun (name, prio, assoc) -> (name, { prio; assoc }))
       [ (":-", 1200, Xfx);
         ("-->", 1200, Xfx);
         (";", 1100, Xfy);
         ("->", 1050, Xfy);
         (",", 1000, Xfy);
         ("&", 950, Xfy);
         ("=", 700, Xfx);
         ("\\=", 700, Xfx);
         ("==", 700, Xfx);
         ("\\==", 700, Xfx);
         ("is", 700, Xfx);
         ("<", 700, Xfx);
         (">", 700, Xfx);
         ("=<", 700, Xfx);
         (">=", 700, Xfx);
         ("=:=", 700, Xfx);
         ("=\\=", 700, Xfx);
         ("@<", 700, Xfx);
         ("@>", 700, Xfx);
         ("@=<", 700, Xfx);
         ("@>=", 700, Xfx);
         ("=..", 700, Xfx);
         ("+", 500, Yfx);
         ("-", 500, Yfx);
         ("/\\", 500, Yfx);
         ("\\/", 500, Yfx);
         ("xor", 500, Yfx);
         ("*", 400, Yfx);
         ("/", 400, Yfx);
         ("//", 400, Yfx);
         ("mod", 400, Yfx);
         ("rem", 400, Yfx);
         ("div", 400, Yfx);
         (">>", 400, Yfx);
         ("<<", 400, Yfx);
         ("^", 200, Xfy) ])

(* (priority, strict): a strict operator's argument must have a strictly
   smaller priority (fy operators are not strict) *)
let prefix_table =
  Symbol.by_id
    [ (":-", (1200, false));
      ("?-", (1200, false));
      ("\\+", (900, false));
      ("-", (200, true));
      ("+", (200, true)) ]

let infix s = Symbol.find infix_table s

let prefix s = Symbol.find prefix_table s

let is_operator s = infix s <> None || prefix s <> None
