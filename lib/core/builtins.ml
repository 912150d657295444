(* Deterministic builtin predicates, shared by all engines.

   Control constructs (cut, negation, if-then-else, disjunction) are engine
   business and are not here.  Each builtin either succeeds (possibly
   binding variables through the caller's trail), fails, or reports that the
   call is not a builtin at all.

   Dispatch indexes one array with an integer key that packs the goal's
   interned functor id with its arity (all builtins have arity <= 3, so
   two bits suffice): a bounds check and a load, no hashing and no
   allocation.  The array is built at start-up and read-only afterwards;
   a symbol interned later lies past its end and is [Not_builtin].  No
   string is touched on the call path. *)

module Term = Ace_term.Term
module Symbol = Ace_term.Symbol
module Trail = Ace_term.Trail
module Unify = Ace_term.Unify
module Arith = Ace_term.Arith

type outcome =
  | Ok
  | Fail
  | Not_builtin

type ctx = {
  trail : Trail.t;
  steps : int ref;      (* unification steps performed, for cost charging *)
  arith_nodes : int ref;(* arithmetic nodes evaluated *)
  output : Buffer.t option; (* destination of write/1, nl/0; None = stdout *)
}

let make_ctx ?output ~trail () = { trail; steps = ref 0; arith_nodes = ref 0; output }

let names =
  [ ("true", 0); ("fail", 0); ("false", 0);
    ("=", 2); ("\\=", 2); ("==", 2); ("\\==", 2);
    ("@<", 2); ("@>", 2); ("@=<", 2); ("@>=", 2);
    ("compare", 3);
    ("is", 2); ("<", 2); (">", 2); ("=<", 2); (">=", 2); ("=:=", 2); ("=\\=", 2);
    ("var", 1); ("nonvar", 1); ("atom", 1); ("number", 1); ("integer", 1);
    ("atomic", 1); ("compound", 1); ("callable", 1); ("is_list", 1); ("ground", 1);
    ("functor", 3); ("arg", 3); ("=..", 2);
    ("write", 1); ("print", 1); ("nl", 0); ("write_canonical", 1);
    ("halt", 0) ]

let is_builtin name arity = List.mem (name, arity) names

let arith ctx t =
  ctx.arith_nodes := !(ctx.arith_nodes) + Term.size t;
  Arith.eval t

let bool_outcome b = if b then Ok else Fail

let emit ctx s =
  match ctx.output with
  | Some buf -> Buffer.add_string buf s
  | None -> print_string s

let univ ctx a b =
  (* X =.. [f, Args...] in both directions *)
  match Term.deref a with
  | Term.Var _ -> (
    match Term.to_list b with
    | Some (f :: args) -> (
      match Term.deref f, args with
      | Term.Atom sym, args ->
        bool_outcome
          (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps a
             (Term.struct_sym sym (Array.of_list args)))
      | Term.Int _, [] ->
        bool_outcome (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps a f)
      | _ -> Errors.error "=../2: invalid functor list")
    | Some [] -> Errors.error "=../2: empty list"
    | None -> Errors.error "=../2: unbound arguments")
  | Term.Atom sym ->
    bool_outcome
      (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps b
         (Term.of_list [ Term.Atom sym ]))
  | Term.Int n ->
    bool_outcome
      (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps b
         (Term.of_list [ Term.Int n ]))
  | Term.Struct (sym, args) ->
    bool_outcome
      (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps b
         (Term.of_list (Term.Atom sym :: Array.to_list args)))

let fa = Symbol.intern "fa"

let functor3 ctx t f a =
  match Term.deref t with
  | Term.Var _ -> (
    match Term.deref f, Term.deref a with
    | f', Term.Int 0 ->
      bool_outcome (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps t f')
    | Term.Atom sym, Term.Int n when n > 0 ->
      let args = Array.init n (fun _ -> Term.var ()) in
      bool_outcome
        (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps t
           (Term.Struct (sym, args)))
    | _ -> Errors.error "functor/3: insufficiently instantiated"
  )
  | Term.Atom sym ->
    bool_outcome
      (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps
         (Term.Struct (fa, [| f; a |]))
         (Term.Struct (fa, [| Term.Atom sym; Term.Int 0 |])))
  | Term.Int n ->
    bool_outcome
      (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps
         (Term.Struct (fa, [| f; a |]))
         (Term.Struct (fa, [| Term.Int n; Term.Int 0 |])))
  | Term.Struct (sym, args) ->
    bool_outcome
      (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps
         (Term.Struct (fa, [| f; a |]))
         (Term.Struct (fa, [| Term.Atom sym; Term.Int (Array.length args) |])))

let arg3 ctx n t a =
  match Term.deref n, Term.deref t with
  | Term.Int i, Term.Struct (_, args) ->
    if i >= 1 && i <= Array.length args then
      bool_outcome
        (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps a args.(i - 1))
    else Fail
  | _ -> Errors.error "arg/3: insufficiently instantiated"

(* ------------------------------------------------------------------ *)
(* Dispatch table                                                      *)
(* ------------------------------------------------------------------ *)

(* Key: functor id shifted past a 2-bit arity field (all builtins have
   arity <= 3). *)
let key_of id arity = (id lsl 2) lor arity

type impl = ctx -> Term.t array -> outcome

let def name arity (f : impl) = (key_of (Symbol.id (Symbol.intern name)) arity, f)

let unify2 ctx a b =
  bool_outcome (Unify.unify_or_undo ~trail:ctx.trail ~steps:ctx.steps a b)

let sym_lt = Symbol.intern "<"
let sym_gt = Symbol.intern ">"
let sym_eq = Symbol.intern "="

let def_type_check name (p : Term.t -> bool) =
  def name 1 (fun _ctx args -> bool_outcome (p (Term.deref args.(0))))

let def_arith_cmp name =
  let op = Symbol.intern name in
  def name 2 (fun ctx args ->
      bool_outcome (Arith.compare_op op (arith ctx args.(0)) (arith ctx args.(1))))

let write ctx args =
  emit ctx (Ace_term.Pp.to_string args.(0));
  Ok

let defs =
  [ def "true" 0 (fun _ _ -> Ok);
    def "fail" 0 (fun _ _ -> Fail);
    def "false" 0 (fun _ _ -> Fail);
    def "nl" 0 (fun ctx _ ->
        emit ctx "\n";
        Ok);
    def "halt" 0 (fun _ _ -> Errors.error "halt/0: not allowed in embedded engine");
    def "=" 2 (fun ctx args -> unify2 ctx args.(0) args.(1));
    def "\\=" 2 (fun ctx args ->
        (* it goes on after undoing its own bindings, so it unifies under
           full trailing, whatever the caller's watermark *)
        let mark = Trail.mark ctx.trail and hb = Trail.hb ctx.trail in
        Trail.set_hb ctx.trail max_int;
        let unified =
          Unify.unify ~trail:ctx.trail ~steps:ctx.steps args.(0) args.(1)
        in
        ignore (Trail.undo_to ctx.trail mark);
        Trail.set_hb ctx.trail hb;
        bool_outcome (not unified));
    def "==" 2 (fun _ args -> bool_outcome (Term.equal args.(0) args.(1)));
    def "\\==" 2 (fun _ args -> bool_outcome (not (Term.equal args.(0) args.(1))));
    def "@<" 2 (fun _ args -> bool_outcome (Term.compare args.(0) args.(1) < 0));
    def "@>" 2 (fun _ args -> bool_outcome (Term.compare args.(0) args.(1) > 0));
    def "@=<" 2 (fun _ args -> bool_outcome (Term.compare args.(0) args.(1) <= 0));
    def "@>=" 2 (fun _ args -> bool_outcome (Term.compare args.(0) args.(1) >= 0));
    def "compare" 3 (fun ctx args ->
        let c = Term.compare args.(1) args.(2) in
        let sym = if c < 0 then sym_lt else if c > 0 then sym_gt else sym_eq in
        unify2 ctx args.(0) (Term.Atom sym));
    def "is" 2 (fun ctx args ->
        let n = arith ctx args.(1) in
        unify2 ctx args.(0) (Term.Int n));
    def_type_check "var" (function Term.Var _ -> true | _ -> false);
    def_type_check "nonvar" (function Term.Var _ -> false | _ -> true);
    def_type_check "atom" (function Term.Atom _ -> true | _ -> false);
    def_type_check "number" (function Term.Int _ -> true | _ -> false);
    def_type_check "integer" (function Term.Int _ -> true | _ -> false);
    def_type_check "atomic" (function
      | Term.Atom _ | Term.Int _ -> true
      | _ -> false);
    def_type_check "compound" (function Term.Struct _ -> true | _ -> false);
    def_type_check "callable" (function
      | Term.Atom _ | Term.Struct _ -> true
      | _ -> false);
    def_type_check "is_list" (fun t -> Term.to_list t <> None);
    def_type_check "ground" Term.is_ground;
    def "functor" 3 (fun ctx args -> functor3 ctx args.(0) args.(1) args.(2));
    def "arg" 3 (fun ctx args -> arg3 ctx args.(0) args.(1) args.(2));
    def "=.." 2 (fun ctx args -> univ ctx args.(0) args.(1));
    def "write" 1 write;
    def "print" 1 write;
    def "write_canonical" 1 write ]
  @ List.map def_arith_cmp [ "<"; ">"; "=<"; ">="; "=:="; "=\\=" ]

(* Slot [key_of id arity] holds [Some impl]; the stored option is what
   [find] returns, so a lookup allocates nothing. *)
let dispatch : impl option array =
  let t = Array.make (1 + List.fold_left (fun m (k, _) -> Int.max m k) (-1) defs) None in
  List.iter (fun (k, f) -> t.(k) <- Some f) defs;
  t

let find sym arity =
  let k = key_of (Symbol.id sym) arity in
  if arity <= 3 && k < Array.length dispatch then dispatch.(k) else None

let no_args = [||]

(* Executes a builtin call; [Not_builtin] lets the engine fall back to the
   clause database. *)
let rec call ctx goal =
  try call_unchecked ctx goal
  with Arith.Error msg ->
    raise
      (Arith.Error
         (Format.asprintf "%s in %a" msg Ace_term.Pp.pp (Term.deref goal)))

and call_unchecked ctx goal =
  match Term.deref goal with
  | Term.Atom s -> (
    match find s 0 with
    | Some f -> f ctx no_args
    | None -> Not_builtin)
  | Term.Struct (s, args) -> (
    match find s (Array.length args) with
    | Some f -> f ctx args
    | None -> Not_builtin)
  | Term.Int _ -> Errors.error "callable expected, got integer"
  | Term.Var _ -> Errors.error "unbound goal"

(* Register-file entry point for the compiled body path: the goal's
   arguments arrive spread in [args]'s first [arity] cells (the array
   may be longer — it is the caller's shared register file, passed
   through without copying; every implementation indexes only within its
   arity).  The goal term for the arithmetic error message is built only
   on the error path. *)
let call_args ctx sym arity (args : Term.t array) =
  match find sym arity with
  | None -> Not_builtin
  | Some f -> (
    try f ctx args
    with Arith.Error msg ->
      let goal =
        if arity = 0 then Term.Atom sym
        else Term.Struct (sym, Array.sub args 0 arity)
      in
      raise
        (Arith.Error (Format.asprintf "%s in %a" msg Ace_term.Pp.pp goal)))

(* ------------------------------------------------------------------ *)
(* Arithmetic over compiled put descriptors                            *)
(* ------------------------------------------------------------------ *)

module Code = Ace_lang.Code

exception Non_arith

(* Evaluates a compiled body step's put tree against the frame without
   building the expression term; node counting matches [arith] on the
   built term.  [Non_arith] aborts to the generic register path, which
   rebuilds the term and reproduces the exact error behavior for
   non-arithmetic shapes (unbound operands, unknown operators). *)
let rec eval_put ctx frame (p : Code.put) =
  match p with
  | Code.P_const t -> arith ctx t
  | Code.P_val slot -> arith ctx frame.(slot)
  | Code.P_struct (op, [| x |]) -> (
    match Arith.unary_op op with
    | Some f ->
      ctx.arith_nodes := !(ctx.arith_nodes) + 1;
      f (eval_put ctx frame x)
    | None -> raise Non_arith)
  | Code.P_struct (op, [| x; y |]) -> (
    match Arith.binary_op op with
    | Some f ->
      ctx.arith_nodes := !(ctx.arith_nodes) + 1;
      let x = eval_put ctx frame x in
      f x (eval_put ctx frame y)
    | None -> raise Non_arith)
  | Code.P_struct _ | Code.P_fresh _ | Code.P_void -> raise Non_arith

let sym_is = Symbol.intern "is"

(* The generic path's error message prints the goal term; rebuild it
   from the puts on this cold path so the two are indistinguishable. *)
let rebuilt_error frame (puts : Code.put array) sym msg =
  let goal = Term.Struct (sym, Array.map (Code.build_put frame) puts) in
  raise (Arith.Error (Format.asprintf "%s in %a" msg Ace_term.Pp.pp goal))

(* [is/2] and the arithmetic comparisons straight off a compiled body
   step's put descriptors, allocating nothing but [is/2]'s result:
   [Not_builtin] tells the caller to take the register path instead.  A
   first-occurrence result variable stores its integer into the frame
   slot directly — the slot is invisible to the caller until read, so no
   fresh variable and no trail entry are needed (deeper backtracking
   discards the whole frame). *)
let call_put_args ctx (frame : Term.t array) (puts : Code.put array) sym arity =
  if arity <> 2 then Not_builtin
  else if Symbol.equal sym sym_is then
    match eval_put ctx frame puts.(1) with
    | exception Non_arith -> Not_builtin
    | exception Arith.Error msg -> rebuilt_error frame puts sym msg
    | n -> (
      match puts.(0) with
      | Code.P_fresh slot ->
        frame.(slot) <- Term.Int n;
        Ok
      | Code.P_void -> Ok
      | lhs -> unify2 ctx (Code.build_put frame lhs) (Term.Int n))
  else
    match Arith.comparison_op sym with
    | None -> Not_builtin
    | Some f -> (
      (* operand order mirrors the generic call's right-to-left argument
         evaluation, so error precedence is unchanged *)
      match eval_put ctx frame puts.(1) with
      | exception Non_arith -> Not_builtin
      | exception Arith.Error msg -> rebuilt_error frame puts sym msg
      | y -> (
        match eval_put ctx frame puts.(0) with
        | exception Non_arith -> Not_builtin
        | exception Arith.Error msg -> rebuilt_error frame puts sym msg
        | x -> bool_outcome (f x y)))

(* Tell the clause compiler what a builtin is, so body goals classify
   identically here and there (the compiler library sits below this
   table and cannot ask it directly). *)
let () =
  Ace_lang.Code.builtin_hook := fun s arity -> Option.is_some (find s arity)
