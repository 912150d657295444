(* Seeded random generator of closed Prolog programs plus a query, over
   the subset all four engines accept: user predicates, ground arithmetic,
   comparisons, unification, list library calls and independent parallel
   conjunctions.  No cut, disjunction, if-then-else or negation (the
   or-parallel engines reject those).

   Termination is by construction:
   - generated predicates only call strictly lower-numbered predicates, so
     the call graph is acyclic;
   - the only recursive predicates are the fixed list prelude
     (mem_l/app_l/sel_l), and every generated call to them puts a ground
     list literal in the structurally-descending argument.

   The generator keeps a global budget of nondeterministic goals per
   program so the solution count stays small enough to compare in full. *)

module Rng = Ace_sched.Rng

type term =
  | Int of int
  | Atm of string
  | Var of string
  | Lst of term list
  | App of string * term list

type goal =
  | Call of term
  | Par of term * term (* g1 & g2, generated variable-free: independent *)

type clause = { c_head : term; c_body : goal list }

type t = {
  seed : int;
  arities : int array; (* arity of generated predicate [i] *)
  clauses : clause list; (* flat, grouped by predicate in order *)
  query : goal list;
  tabled : (string * int) list; (* predicates under [:- table] (else []) *)
}

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let infix_ops =
  [ "+"; "-"; "*"; "is"; "="; "<"; ">"; "=<"; ">="; "=:="; "=="; "@<" ]

let rec bpp_term b t =
  match t with
  | Int n -> if n < 0 then Printf.bprintf b "(%d)" n else Printf.bprintf b "%d" n
  | Atm a -> Buffer.add_string b a
  | Var v -> Buffer.add_string b v
  | Lst ts ->
    Buffer.add_char b '[';
    List.iteri
      (fun i t ->
        if i > 0 then Buffer.add_char b ',';
        bpp_term b t)
      ts;
    Buffer.add_char b ']'
  | App (op, [ l; r ]) when List.mem op infix_ops ->
    Buffer.add_char b '(';
    bpp_term b l;
    Printf.bprintf b " %s " op;
    bpp_term b r;
    Buffer.add_char b ')'
  | App (f, args) ->
    Buffer.add_string b f;
    Buffer.add_char b '(';
    List.iteri
      (fun i t ->
        if i > 0 then Buffer.add_char b ',';
        bpp_term b t)
      args;
    Buffer.add_char b ')'

let bpp_goal b = function
  | Call t -> bpp_term b t
  | Par (l, r) ->
    bpp_term b l;
    Buffer.add_string b " & ";
    bpp_term b r

let bpp_clause b { c_head; c_body } =
  bpp_term b c_head;
  (match c_body with
  | [] -> ()
  | gs ->
    Buffer.add_string b " :- ";
    List.iteri
      (fun i g ->
        if i > 0 then Buffer.add_string b ", ";
        bpp_goal b g)
      gs);
  Buffer.add_string b ".\n"

(* The fixed list library; every generated call drives recursion with a
   ground list literal, so these always terminate. *)
let prelude =
  "mem_l(X, [X|_]).\n\
   mem_l(X, [_|T]) :- mem_l(X, T).\n\
   app_l([], Y, Y).\n\
   app_l([H|T], Y, [H|R]) :- app_l(T, Y, R).\n\
   sel_l(X, [X|T], T).\n\
   sel_l(X, [H|T], [H|R]) :- sel_l(X, T, R).\n"

let program_text ?drop t =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, arity) -> Printf.bprintf b ":- table(%s/%d).\n" name arity)
    t.tabled;
  Buffer.add_string b prelude;
  List.iteri
    (fun i c -> if drop <> Some i then bpp_clause b c)
    t.clauses;
  Buffer.contents b

let query_text t =
  let b = Buffer.create 64 in
  List.iteri
    (fun i g ->
      if i > 0 then Buffer.add_string b ", ";
      bpp_goal b g)
    t.query;
  Buffer.contents b

let clause_count t = List.length t.clauses

let pp ppf t =
  Format.fprintf ppf "%% seed %d@.%s?- %s.@." t.seed
    (program_text t) (query_text t)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

type st = {
  rng : Rng.t;
  mutable fresh : int; (* per-clause fresh-variable counter *)
  mutable nondet : int; (* global budget of nondeterministic goals *)
}

let pred_name i = Printf.sprintf "p%d" i

let fresh_var st =
  let v = Printf.sprintf "V%d" st.fresh in
  st.fresh <- st.fresh + 1;
  Var v

let small_int st = Int (Rng.int st.rng 10)

let ground_list st =
  let n = 1 + Rng.int st.rng 3 in
  Lst (List.init n (fun _ -> small_int st))

let ground_atom st = Atm [| "a"; "b"; "c" |].(Rng.int st.rng 3)

let ground_term st =
  match Rng.int st.rng 4 with
  | 0 -> ground_atom st
  | 1 -> ground_list st
  | 2 -> App ("f", [ small_int st; ground_atom st ])
  | _ -> small_int st

(* Ground arithmetic expression, depth-bounded; only total operators. *)
let rec arith_expr st depth =
  if depth = 0 || Rng.int st.rng 3 = 0 then small_int st
  else
    let op = [| "+"; "-"; "*" |].(Rng.int st.rng 3) in
    App (op, [ arith_expr st (depth - 1); arith_expr st (depth - 1) ])

(* A goal that mentions no variables at all (safe on either side of '&'). *)
let ground_goal st npreds arities =
  match Rng.int st.rng (if npreds > 0 then 3 else 2) with
  | 0 ->
    let cmp = [| "<"; "=<"; "=:=" |].(Rng.int st.rng 3) in
    App (cmp, [ small_int st; small_int st ])
  | 1 -> App ("integer", [ small_int st ])
  | _ ->
    let j = Rng.int st.rng npreds in
    let args = List.init arities.(j) (fun _ -> ground_term st) in
    App (pred_name j, args)

(* An argument for a call: an in-scope variable, a fresh one, or ground. *)
let call_arg st pool =
  match Rng.int st.rng 10 with
  | 0 | 1 | 2 | 3 when !pool <> [] ->
    List.nth !pool (Rng.int st.rng (List.length !pool))
  | 4 | 5 | 6 ->
    let v = fresh_var st in
    pool := v :: !pool;
    v
  | _ -> ground_term st

(* One body goal for predicate [i]; [pool] is the in-scope variable pool. *)
let body_goal st ~i arities pool =
  let nondet_ok = st.nondet < 5 in
  let k = Rng.int st.rng 100 in
  if i > 0 && k < 30 then begin
    let j = Rng.int st.rng i in
    let args = List.init arities.(j) (fun _ -> call_arg st pool) in
    Call (App (pred_name j, args))
  end
  else if k < 55 && nondet_ok then begin
    st.nondet <- st.nondet + 1;
    match Rng.int st.rng 3 with
    | 0 ->
      let v = call_arg st pool in
      Call (App ("mem_l", [ v; ground_list st ]))
    | 1 ->
      let a = fresh_var st and b = fresh_var st in
      pool := a :: b :: !pool;
      Call (App ("app_l", [ a; b; ground_list st ]))
    | _ ->
      let v = fresh_var st and r = fresh_var st in
      pool := v :: !pool;
      Call (App ("sel_l", [ v; ground_list st; r ]))
  end
  else if k < 70 then begin
    let v = fresh_var st in
    pool := v :: !pool;
    Call (App ("is", [ v; arith_expr st 2 ]))
  end
  else if k < 80 then
    Call (App ([| "<"; "=<"; "=:=" |].(Rng.int st.rng 3),
               [ small_int st; small_int st ]))
  else if k < 90 then begin
    let v = call_arg st pool in
    Call (App ("=", [ v; ground_term st ]))
  end
  else
    (* variable-free branches: strictly independent by construction *)
    Par (ground_goal st i arities, ground_goal st i arities)

let gen_clause st ~i arities =
  st.fresh <- 0;
  let arity = arities.(i) in
  let pool = ref [] in
  let head_args =
    List.init arity (fun k ->
        if Rng.int st.rng 10 < 7 then begin
          let v = Var (Printf.sprintf "A%d" k) in
          pool := v :: !pool;
          v
        end
        else ground_term st)
  in
  let head =
    if arity = 0 then Atm (pred_name i) else App (pred_name i, head_args)
  in
  let ngoals = Rng.int st.rng 4 in
  let body = List.init ngoals (fun _ -> body_goal st ~i arities pool) in
  { c_head = head; c_body = body }

(* ------------------------------------------------------------------ *)
(* Tabled (Datalog) cases                                              *)
(* ------------------------------------------------------------------ *)

(* Every fourth seed generates a *tabled* case instead: a ground edge
   relation over a small node universe plus [:- table]d recursive rules —
   left-recursive, right-recursive, doubly recursive, mutually recursive,
   same-generation or nested SCCs — and a single tabled (or
   tabled-via-wrapper) query.
   These would loop forever under plain SLD; termination comes from the
   answer table, and the oracle checks them against the independent
   bottom-up evaluator ({!Naive}) rather than the sequential engine. *)

let generate_tabled st seed =
  let nnodes = 4 + Rng.int st.rng 5 in
  let node i = Atm (Printf.sprintf "n%d" i) in
  let rand_node () = node (Rng.int st.rng nnodes) in
  (* a spine cycle (usually) so recursion must cross a loop, plus extras *)
  let edge_facts =
    let ring =
      List.concat
        (List.init nnodes (fun i ->
             if Rng.int st.rng 4 > 0 then
               [ { c_head = App ("e0", [ node i; node ((i + 1) mod nnodes) ]);
                   c_body = [] } ]
             else []))
    in
    let extras =
      List.init
        (1 + Rng.int st.rng nnodes)
        (fun _ ->
          { c_head = App ("e0", [ rand_node (); rand_node () ]); c_body = [] })
    in
    ring @ extras
  in
  let x = Var "X" and y = Var "Y" and z = Var "Z" and w = Var "W" in
  let e a b = Call (App ("e0", [ a; b ])) in
  let t0 a b = App ("t0", [ a; b ]) in
  let t1 a b = App ("t1", [ a; b ]) in
  let base = { c_head = t0 x y; c_body = [ e x y ] } in
  let shape = Rng.int st.rng 6 in
  let rules, tabled =
    match shape with
    | 0 ->
      (* left-recursive transitive closure *)
      ( [ base; { c_head = t0 x y; c_body = [ Call (t0 x z); e z y ] } ],
        [ ("t0", 2) ] )
    | 1 ->
      (* right-recursive transitive closure *)
      ( [ base; { c_head = t0 x y; c_body = [ e x z; Call (t0 z y) ] } ],
        [ ("t0", 2) ] )
    | 2 ->
      (* doubly recursive transitive closure *)
      ( [ base; { c_head = t0 x y; c_body = [ Call (t0 x z); Call (t0 z y) ] } ],
        [ ("t0", 2) ] )
    | 3 ->
      (* mutual recursion through a tabled alias *)
      ( [ base;
          { c_head = t0 x y; c_body = [ Call (t1 x z); e z y ] };
          { c_head = t1 x y; c_body = [ Call (t0 x y) ] } ],
        [ ("t0", 2); ("t1", 2) ] )
    | 4 ->
      (* same generation over the edge relation *)
      ( List.init nnodes (fun i ->
            { c_head = App ("t0", [ node i; node i ]); c_body = [] })
        @ [ { c_head = t0 x y;
              c_body = [ e z x; Call (t0 z w); e w y ] } ],
        [ ("t0", 2) ] )
    | _ ->
      (* nested SCCs: the inner [t1] reaches the outer [t0] only through
         the gate [g0], which its recursive clause meets only on answers
         derived after its first pass; [t0]'s second clause adds answers
         ending in [z0] that [t1] can only get through that late link *)
      let s0 a b = App ("s0", [ a; b ]) in
      ( [ { c_head = t0 x y; c_body = [ Call (t1 x y) ] };
          { c_head = t0 x (Atm "z0"); c_body = [ e x y ] };
          { c_head = t1 x y; c_body = [ Call (t1 x z); Call (s0 z y) ] };
          { c_head = t1 x y; c_body = [ e x y ] };
          { c_head = s0 x y; c_body = [ e x y ] };
          { c_head = s0 x y;
            c_body = [ Call (App ("g0", [ x ])); Call (t0 z y) ] } ]
        @ List.init
            (1 + Rng.int st.rng 2)
            (fun _ -> { c_head = App ("g0", [ rand_node () ]); c_body = [] }),
        [ ("t0", 2); ("t1", 2) ] )
  in
  (* sometimes query through an untabled wrapper, so plain SLD clauses
     resolve against a completed table; nested SCCs always go through a
     tabled one that completes [t0] first and then reads all of [t1] *)
  let wrapper, qname =
    if shape = 5 then
      ( [ { c_head = App ("q0", [ x; y ]);
            c_body = [ Call (t0 z w); Call (t1 x y) ] } ],
        "q0" )
    else if Rng.int st.rng 3 = 0 then
      ([ { c_head = App ("q0", [ x; y ]); c_body = [ Call (t0 x y) ] } ], "q0")
    else ([], "t0")
  in
  let qarg bound = if bound then rand_node () else fresh_var st in
  let query =
    let pattern = if shape = 5 then 1 else Rng.int st.rng 3 in
    [ Call
        (App (qname, [ qarg (pattern = 0); qarg (pattern = 2) ])) ]
  in
  let tabled = if shape = 5 then tabled @ [ ("q0", 2) ] else tabled in
  {
    seed;
    arities = [| 2 |];
    clauses = edge_facts @ rules @ wrapper;
    query;
    tabled;
  }

(* ------------------------------------------------------------------ *)
(* Fact tables                                                         *)
(* ------------------------------------------------------------------ *)

(* Two seeds in eight ([seed mod 8 < 2], a third of the untabled cases,
   every other one also run through a server session) add a table to
   their untabled program, drawn after it, so that program and its query
   are unchanged: 8-40 facts [d0/2] or [d0/3] over five atoms and five
   integers, so keys repeat (a predicate the database stores as
   columns).  The added query goals, put before the program's own,
   select one row [r] (its other copies are left out) and call the table
   with every binding pattern, inside a clause body (the compiled
   path's register calls) and from the query itself: [w0(r)] enumerates
   every row (no argument bound), then looks [r] up by its first
   argument alone, by its second alone (the first unbound) and with
   every argument bound; the query's own call binds the first argument,
   the second alone, all of them or none.  Each call is filtered back to
   [r], so the added goals have exactly one answer and the program's
   answers do not multiply; a lost row fails them. *)
let add_table st case =
  let arity = 2 + Rng.int st.rng 2 in
  let value () =
    match Rng.int st.rng 10 with
    | i when i < 5 -> Atm [| "a"; "b"; "c"; "d"; "e" |].(i)
    | i -> Int (i - 5)
  in
  let rows =
    Array.init (8 + Rng.int st.rng 33) (fun _ -> List.init arity (fun _ -> value ()))
  in
  let pick = Rng.int st.rng (Array.length rows) in
  let r = rows.(pick) in
  let rows = List.filteri (fun i row -> i = pick || row <> r) (Array.to_list rows) in
  let d args = App ("d0", args) in
  let vars prefix = List.init arity (fun k -> Var (Printf.sprintf "%s%d" prefix k)) in
  let with_arg k x l = List.mapi (fun i y -> if i = k then x else y) l in
  let without k l = List.filteri (fun i _ -> i <> k) l in
  let equal xs ys = Call (App ("=", [ Lst xs; Lst ys ])) in
  (* [d0(args)], then [args] unified with [target] *)
  let filtered args target =
    [ Call (d args); equal args target ]
  in
  let a = vars "A" and b = vars "B" and c = vars "C" and v = vars "D" in
  let wrapper =
    {
      c_head = App ("w0", a);
      c_body =
        filtered v a                                       (* none bound *)
        @ [ Call (d (with_arg 0 (List.nth a 0) b));        (* first bound *)
            equal (without 0 b) (without 0 a);
            Call (d (with_arg 1 (List.nth a 1) c));        (* only the second *)
            equal (without 1 c) (without 1 a);
            Call (d a) ];                                  (* all bound *)
    }
  in
  let t = vars "T" in
  let direct =
    match Rng.int st.rng 4 with
    | 0 -> [ Call (d (with_arg 0 (List.nth r 0) t)); equal (without 0 t) (without 0 r) ]
    | 1 -> [ Call (d (with_arg 1 (List.nth r 1) t)); equal (without 1 t) (without 1 r) ]
    | 2 -> [ Call (d r) ]
    | _ -> filtered t r
  in
  {
    case with
    clauses =
      case.clauses
      @ List.map (fun row -> { c_head = d row; c_body = [] }) rows
      @ [ wrapper ];
    query = direct @ [ Call (App ("w0", r)) ] @ case.query;
  }

let generate ~seed =
  let st = { rng = Rng.create seed; fresh = 0; nondet = 0 } in
  if seed mod 4 = 3 then generate_tabled st seed
  else
  let npreds = 2 + Rng.int st.rng 4 in
  let arities = Array.init npreds (fun _ -> 1 + Rng.int st.rng 2) in
  let clauses =
    List.concat
      (List.init npreds (fun i ->
           let n = 1 + Rng.int st.rng 3 in
           List.init n (fun _ -> gen_clause st ~i arities)))
  in
  st.fresh <- 0;
  let query_goal j =
    let args = List.init arities.(j) (fun _ ->
        if Rng.int st.rng 4 = 0 then ground_term st
        else fresh_var st)
    in
    Call (App (pred_name j, args))
  in
  let query =
    let top = npreds - 1 in
    if Rng.int st.rng 3 = 0 && npreds > 1 then
      [ query_goal top; query_goal (Rng.int st.rng top) ]
    else [ query_goal top ]
  in
  let case = { seed; arities; clauses; query; tabled = [] } in
  if seed mod 8 < 2 then add_table st case else case
