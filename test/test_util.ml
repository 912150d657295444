(* Shared helpers for the test suite. *)

module Term = Ace_term.Term
module Config = Ace_machine.Config
module Engine = Ace_core.Engine

let term s = Ace_lang.Parser.term_of_string (s ^ " .")

let check_term msg expected actual =
  Alcotest.(check string) msg expected (Ace_term.Pp.to_string actual)

(* Runs [query] against [program] on [kind]/[config]; returns printed
   solutions. *)
let solutions ?(config = Config.default) ?(kind = Engine.Sequential) program
    query =
  let r = Engine.solve_program kind config ~program ~query in
  List.map Ace_term.Pp.to_string r.Engine.solutions

(* The compiled path's lookup ([Database.find_code]) of a call whose
   arguments are the first cells of [args], as clauses: a store's
   selected rows are read through its clause view (one clause per row,
   in row order), between an overlay's own clauses, its tombstoned rows
   left out.  [None]: undefined. *)
let compiled_candidates_args db sym arity (args : Term.t array) =
  let module Database = Ace_lang.Database in
  let module Store = Ace_lang.Store in
  match Database.find_code db sym arity args with
  | Database.Undefined -> None
  | Database.Clauses clauses -> Some clauses
  | Database.Rows r ->
    let owner = Option.value (Database.base db) ~default:db in
    let view =
      Array.of_list
        (Database.clauses_of owner (Ace_term.Symbol.name sym) arity)
    in
    let sel = Store.sel () in
    Store.select r.Database.store args sel;
    let rows =
      List.init (sel.hi - sel.lo) (fun i -> Store.row_at sel.order (sel.lo + i))
    in
    Some
      (r.Database.front
      @ List.filter_map
          (fun row ->
            if List.mem row r.Database.dead then None else Some view.(row))
          rows
      @ r.Database.back)

(* The same for a goal term. *)
let compiled_candidates db goal =
  match Term.deref goal with
  | Term.Struct (sym, args) ->
    compiled_candidates_args db sym (Array.length args) args
  | Term.Atom sym -> compiled_candidates_args db sym 0 [||]
  | Term.Int _ | Term.Var _ -> invalid_arg "compiled_candidates: callable expected"

(* Abstract cycles of a run on an engine that charges them (all but
   [Par_or]). *)
let cycles r = Option.get r.Engine.cycles

let sorted_strings xs = List.sort String.compare xs

(* Engines must agree up to solution order. *)
let check_same_solutions msg a b =
  Alcotest.(check (list string)) msg (sorted_strings a) (sorted_strings b)

(* QCheck generator for closed terms (no unbound variables). *)
let ground_term_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun i -> Term.Int i) (int_range (-99) 99);
              map
                (fun s -> Term.atom s)
                (oneofl [ "a"; "b"; "foo"; "[]"; "bar_baz"; "+"; "hello world" ]) ]
        else
          frequency
            [ (1, map (fun i -> Term.Int i) (int_range (-99) 99));
              (1, map (fun s -> Term.atom s) (oneofl [ "a"; "f"; "g" ]));
              (3,
               map2
                 (fun name args -> Term.struct_ name (Array.of_list args))
                 (oneofl [ "f"; "g"; "."; "pair" ])
                 (list_size (int_range 1 3) (self (n / 2)))) ]))

(* Terms with a sprinkling of shared variables. *)
let open_term_gen =
  QCheck2.Gen.(
    let* vars = int_range 0 3 in
    let pool = Array.init (max 1 vars) (fun _ -> Term.fresh_var ()) in
    let rec gen n =
      if n <= 0 then
        oneof
          [ map (fun i -> Term.Int i) (int_range 0 9);
            map (fun s -> Term.atom s) (oneofl [ "a"; "b"; "[]" ]);
            map (fun i -> Term.Var pool.(i mod Array.length pool))
              (int_range 0 (Array.length pool - 1)) ]
      else
        frequency
          [ (1, map (fun i -> Term.Var pool.(i mod Array.length pool))
                  (int_range 0 (Array.length pool - 1)));
            (3,
             map2
               (fun name args -> Term.struct_ name (Array.of_list args))
               (oneofl [ "f"; "g"; "." ])
               (list_size (int_range 1 3) (gen (n / 2)))) ]
    in
    sized gen)

(* Property tests run from an explicit seed (no ambient randomness), and
   the seed is part of the test name so any failure replays immediately:
   ACE_QCHECK_SEED=<n> dune runtest. *)
let qcheck_seed =
  match Option.bind (Sys.getenv_opt "ACE_QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 0xACE5EED

let qcheck ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| qcheck_seed |])
    (QCheck2.Test.make ~count ?print
       ~name:(Printf.sprintf "%s [seed %d]" name qcheck_seed)
       gen prop)
