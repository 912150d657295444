(* Evaluation of Prolog arithmetic expressions (the right-hand side of
   [is/2] and the operands of arithmetic comparisons).

   Operators dispatch through arrays indexed by interned symbol id, built
   once at start-up and read-only afterwards: a lookup is a bounds check
   and a load, with no hashing and no allocation.  A symbol interned
   later (the functor of a goal read at run time) lies past every array
   and reads as no operator.  The operator name is resolved to a string
   only to build an error message. *)

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Slot [id] of an operator array holds [Some f] for the operator
   interned as [id]: the stored option is what a lookup returns. *)
let table defs =
  let defs = List.map (fun (name, f) -> (Symbol.id (Symbol.intern name), f)) defs in
  let t = Array.make (1 + List.fold_left (fun m (id, _) -> Int.max m id) (-1) defs) None in
  List.iter (fun (id, f) -> t.(id) <- Some f) defs;
  t

let find t sym =
  let id = Symbol.id sym in
  if id < Array.length t then t.(id) else None

let unary : (int -> int) option array =
  table
    [ ("-", fun x -> -x);
      ("+", fun x -> x);
      ("abs", abs);
      ("sign", fun x -> Int.compare x 0);
      ("msb", fun x ->
          if x <= 0 then error "msb: argument must be positive"
          else
            let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
            go x 0) ]

let binary : (int -> int -> int) option array =
  let int_div x y = if y = 0 then error "division by zero" else x / y in
  table
    [ ("+", ( + ));
      ("-", ( - ));
      ("*", ( * ));
      ("//", int_div);
      ("div", int_div);
      ("/", fun x y ->
          if y = 0 then error "division by zero"
          else if x mod y <> 0 then error "(/)/2: non-integral result %d/%d" x y
          else x / y);
      ("mod", fun x y ->
          if y = 0 then error "mod by zero"
          else
            let r = x mod y in
            if (r < 0 && y > 0) || (r > 0 && y < 0) then r + y else r);
      ("rem", fun x y -> if y = 0 then error "rem by zero" else x mod y);
      ("min", Int.min);
      ("max", Int.max);
      (">>", ( asr ));
      ("<<", ( lsl ));
      ("gcd", fun x y ->
          let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
          gcd x y);
      ("^", fun x y ->
          if y < 0 then error "(^)/2: negative exponent"
          else
            let rec pow b e acc =
              if e = 0 then acc
              else pow (b * b) (e / 2) (if e land 1 = 1 then acc * b else acc)
            in
            pow x y 1) ]

let comparison : (int -> int -> bool) option array =
  table
    [ ("<", ( < )); (">", ( > )); ("=<", ( <= )); (">=", ( >= ));
      ("=:=", ( = )); ("=\\=", ( <> )) ]

let random = Symbol.intern "random"

let rec eval t =
  match Term.deref t with
  | Term.Int n -> n
  | Term.Var _ -> error "arithmetic: unbound variable"
  | Term.Atom a when Symbol.equal a random ->
    error "arithmetic: random/0 unsupported (nondeterministic)"
  | Term.Atom a -> error "arithmetic: unknown constant %s" (Symbol.name a)
  | Term.Struct (op, [| x |]) -> (
    match find unary op with
    | Some f -> f (eval x)
    | None -> error "arithmetic: unknown operator %s/1" (Symbol.name op))
  | Term.Struct (op, [| x; y |]) -> (
    match find binary op with
    | Some f ->
      let x = eval x in
      f x (eval y)
    | None -> error "arithmetic: unknown operator %s/2" (Symbol.name op))
  | Term.Struct (op, args) ->
    error "arithmetic: unknown operator %s/%d" (Symbol.name op)
      (Array.length args)

let compare_op op x y =
  match find comparison op with
  | Some f -> f x y
  | None -> error "arithmetic: unknown comparison %s" (Symbol.name op)

(* Operator lookups for the compiled-body fast path, which evaluates
   put descriptors directly instead of building the expression term
   (lib/core/builtins.ml). *)
let unary_op sym = find unary sym
let binary_op sym = find binary sym
let comparison_op sym = find comparison sym
