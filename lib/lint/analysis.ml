(* One pass over a unit's typed AST (Tast_iterator) collecting everything
   the rules and the effect inference consume:

   - a def-level reference graph (value definition -> referenced global
     values), with the extension constructors each definition builds;
   - an ordered control-flow tree ([ptree]) per definition — sequencing,
     branching, exception scopes, let-bound local functions (deferred),
     calls carrying a literal first argument, and record-field reads —
     the input to the path-sensitive typestate rules (persist-order,
     phase-order);
   - mutable-state accesses: reads/writes of toplevel cells (refs,
     Hashtbls, Buffers, ...) and of mutable record fields, keyed by the
     enclosing definition — the input to the domain-safety pre-pass;
   - [@@@lint_exempt "scope"] / [@@lint_exempt "scope"] attributes,
     unit- and definition-level;
   - try/match-exception sites, with catch-all classification and the
     references made inside the guarded body;
   - every dotted value identifier, with the instantiated first-argument
     type when the identifier is used at an arrow type (poly-compare and
     partial-call rules).

   Names are normalized as in [Cmt_load]: local module aliases
   ([module Device = Rae_block.Device]) are substituted at the path head,
   and unqualified locals are prefixed with their unit name — so a local
   [phase] in [Rae_core.Controller] and the toplevel defs share the
   "Unit.name" form.  Mutable record fields are named through their
   record type: "Rae_obs.Events.t.clock". *)

type loc = { l_file : string; l_line : int }

let loc_of (l : Location.t) =
  { l_file = l.Location.loc_start.Lexing.pos_fname; l_line = l.Location.loc_start.Lexing.pos_lnum }

(* Ordered control-flow tree.  [P_local] is a let-bound function whose
   body runs only when referenced ([P_ref] of the same name later in the
   tree); anonymous functions are inlined at their occurrence (they are
   overwhelmingly iterator callbacks that do run there).  A loop body
   appears as Alt [nothing; body; body] so cross-iteration orderings are
   visible to the typestate evaluators. *)
type ptree =
  | P_seq of ptree list
  | P_alt of ptree list  (* exactly one branch runs *)
  | P_try of ptree * ptree list  (* guarded body, exception handlers *)
  | P_ref of string * loc  (* use of a value (call or first-class) *)
  | P_lit of string * string * loc  (* apply of [fn] with a literal first argument *)
  | P_field of string * loc  (* read of record field "Type.field" *)
  | P_local of string * ptree  (* let-bound local function, deferred *)

type access_kind = Acc_read | Acc_write

type target =
  | T_global of string  (* a named value; meaningful when it is a toplevel cell *)
  | T_field of string  (* "Type.field" *)

type access = { c_def : string; c_target : target; c_kind : access_kind; c_loc : loc }

type def = {
  d_name : string;
  d_unit : string;
  d_loc : loc;
  mutable d_refs : (string * loc) list;  (* newest first *)
  mutable d_raises : string list;
  mutable d_tree : ptree;
  mutable d_attrs : string list;  (* lint_exempt scopes on this binding *)
  mutable d_cell : string option;  (* allocator kind when the def IS a mutable cell *)
}

type try_site = {
  t_unit : string;
  t_loc : loc;
  t_catchall : bool;  (* has a wildcard/var handler that does not re-raise *)
  t_handles_notfound : bool;
  t_body_refs : (string * loc) list;
  t_body_raises : string list;
  t_body_first_line : int;
  t_body_last_line : int;
}

type ident_hit = {
  h_path : string;  (* normalized, e.g. "Stdlib.List.hd" *)
  h_loc : loc;
  h_arg_type : string option;  (* normalized head constructor of the first argument *)
}

type unit_analysis = {
  a_unit : string;
  a_source : string;
  a_defs : def list;
  a_tries : try_site list;
  a_idents : ident_hit list;
  a_accesses : access list;
  a_attrs : string list;  (* unit-level lint_exempt scopes *)
}

(* ---- path normalization ---- *)

let resolve_path ~aliases ~unit p =
  let name = Path.name p in
  let head = Path.head p in
  if Ident.global head then Cmt_load.normalize name
  else
    let hname = Ident.name head in
    let rest = String.sub name (String.length hname) (String.length name - String.length hname) in
    match Hashtbl.find_opt aliases hname with
    | Some target -> Cmt_load.normalize (target ^ rest)
    | None -> Cmt_load.normalize (unit ^ "." ^ name)

(* "Type.field" for a record label, through the instantiated record
   type, so [t.dev_write] names "Rae_block.Device.t.dev_write" no matter
   where the access happens. *)
let field_name ~aliases ~unit (lbl : Types.label_description) =
  match Types.get_desc lbl.Types.lbl_res with
  | Types.Tconstr (p, _, _) ->
      Some (resolve_path ~aliases ~unit p ^ "." ^ lbl.Types.lbl_name)
  | _ -> None

(* The path a module expression names, through coercions. *)
let rec module_path ~aliases ~unit (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some (resolve_path ~aliases ~unit p)
  | Typedtree.Tmod_constraint (m, _, _, _) -> module_path ~aliases ~unit m
  | _ -> None

(* ---- attributes ---- *)

let attr_string (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Parsetree.Pstr_eval
              ({ pexp_desc = Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

(* [@@@lint_exempt "persist-order"] (unit) / [@@lint_exempt "..."] (def).
   A payload-less attribute exempts every scope. *)
let lint_exempt_scopes attrs =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.Parsetree.attr_name.Location.txt "lint_exempt" then
        Some (match attr_string a with Some s -> s | None -> "all")
      else None)
    attrs

(* ---- stdlib mutators/readers of mutable containers ---- *)

(* The hash tables: the generic [Stdlib.Hashtbl], the project's int and
   name tables ([Rae_util.Tbl]), and any toplevel [Hashtbl.Make]
   instance, whose functions the walk names "Stdlib.Hashtbl.Make.f". *)
let table_modules = [ "Stdlib.Hashtbl"; "Rae_util.Tbl.Int"; "Rae_util.Tbl.Str"; "Stdlib.Hashtbl.Make" ]

let table_fns fns =
  List.concat_map (fun m -> List.map (fun (f, i) -> (m ^ "." ^ f, i)) fns) table_modules

(* fn name -> argument index holding the mutated / read container.
   [Stdlib.!] doubles as the unwrapping step for [!cell.(i) <- v]. *)
let mutator_table =
  table_fns
    [ ("replace", 0); ("add", 0); ("remove", 0); ("reset", 0); ("clear", 0); ("filter_map_inplace", 1) ]
  @ [
    ("Stdlib.:=", 0); ("Stdlib.incr", 0); ("Stdlib.decr", 0);
    ("Stdlib.Buffer.add_char", 0); ("Stdlib.Buffer.add_string", 0);
    ("Stdlib.Buffer.add_bytes", 0); ("Stdlib.Buffer.add_subbytes", 0);
    ("Stdlib.Buffer.clear", 0); ("Stdlib.Buffer.reset", 0); ("Stdlib.Buffer.truncate", 0);
    ("Stdlib.Queue.push", 1); ("Stdlib.Queue.add", 1); ("Stdlib.Queue.pop", 0);
    ("Stdlib.Queue.take", 0); ("Stdlib.Queue.clear", 0); ("Stdlib.Queue.transfer", 0);
    ("Stdlib.Array.set", 0); ("Stdlib.Array.unsafe_set", 0); ("Stdlib.Array.fill", 0);
    ("Stdlib.Array.blit", 2); ("Stdlib.Array.sort", 1); ("Stdlib.Array.fast_sort", 1);
    ("Stdlib.Bytes.set", 0); ("Stdlib.Bytes.unsafe_set", 0); ("Stdlib.Bytes.fill", 0);
    ("Stdlib.Bytes.blit", 2); ("Stdlib.Bytes.blit_string", 2);
    ("Stdlib.Atomic.set", 0); ("Stdlib.Atomic.exchange", 0);
    ("Stdlib.Atomic.compare_and_set", 0); ("Stdlib.Atomic.fetch_and_add", 0);
    ("Stdlib.Atomic.incr", 0); ("Stdlib.Atomic.decr", 0);
  ]
  [@@ocamlformat "disable"]

let reader_table =
  table_fns
    [
      ("find", 0); ("find_opt", 0); ("find_all", 0); ("mem", 0); ("length", 0); ("iter", 1);
      ("fold", 1); ("copy", 0); ("to_seq", 0);
    ]
  @ [
    ("Stdlib.!", 0);
    ("Stdlib.Buffer.contents", 0); ("Stdlib.Buffer.length", 0); ("Stdlib.Buffer.to_bytes", 0);
    ("Stdlib.Buffer.nth", 0); ("Stdlib.Buffer.sub", 0);
    ("Stdlib.Queue.length", 0); ("Stdlib.Queue.peek", 0); ("Stdlib.Queue.peek_opt", 0);
    ("Stdlib.Queue.is_empty", 0); ("Stdlib.Queue.iter", 1); ("Stdlib.Queue.fold", 2);
    ("Stdlib.Array.get", 0); ("Stdlib.Array.unsafe_get", 0); ("Stdlib.Array.length", 0);
    ("Stdlib.Array.iter", 1); ("Stdlib.Array.iteri", 1); ("Stdlib.Array.fold_left", 2);
    ("Stdlib.Array.map", 1); ("Stdlib.Array.mapi", 1); ("Stdlib.Array.to_list", 0);
    ("Stdlib.Array.sub", 0); ("Stdlib.Array.copy", 0); ("Stdlib.Array.exists", 1);
    ("Stdlib.Array.mem", 1); ("Stdlib.Array.memq", 1);
    ("Stdlib.Bytes.get", 0); ("Stdlib.Bytes.unsafe_get", 0); ("Stdlib.Bytes.length", 0);
    ("Stdlib.Bytes.sub", 0); ("Stdlib.Bytes.copy", 0); ("Stdlib.Bytes.to_string", 0);
    ("Stdlib.Atomic.get", 0);
  ]
  [@@ocamlformat "disable"]

let allocator_kind ~aliases ~unit (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _) -> (
      match resolve_path ~aliases ~unit p with
      | "Stdlib.ref" -> Some "ref"
      | "Stdlib.Hashtbl.create" | "Rae_util.Tbl.Str.create" | "Stdlib.Hashtbl.Make.create" ->
          Some "hashtbl"
      | "Rae_util.Tbl.Int.create" -> Some "int-table"
      | "Stdlib.Buffer.create" -> Some "buffer"
      | "Stdlib.Queue.create" -> Some "queue"
      | "Stdlib.Atomic.make" -> Some "atomic"
      | "Stdlib.Array.make" | "Stdlib.Array.init" | "Stdlib.Array.create_float" -> Some "array"
      | "Stdlib.Bytes.create" | "Stdlib.Bytes.make" -> Some "bytes"
      | _ -> None)
  | _ -> None

(* ---- pattern helpers ---- *)

let rec pattern_is_catchall : Typedtree.pattern -> bool =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_any | Typedtree.Tpat_var _ -> true
  | Typedtree.Tpat_alias (p, _, _) -> pattern_is_catchall p
  | Typedtree.Tpat_or (a, b, _) -> pattern_is_catchall a || pattern_is_catchall b
  | _ -> false

let rec pattern_bound_var : Typedtree.pattern -> string option =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Some (Ident.name id)
  | Typedtree.Tpat_alias (p, id, _) -> (
      match pattern_bound_var p with Some v -> Some v | None -> Some (Ident.name id))
  | _ -> None

let rec pattern_matches_ctor name : Typedtree.pattern -> bool =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_construct (_, cd, _, _) -> String.equal cd.Types.cstr_name name
  | Typedtree.Tpat_alias (p, _, _) -> pattern_matches_ctor name p
  | Typedtree.Tpat_or (a, b, _) -> pattern_matches_ctor name a || pattern_matches_ctor name b
  | _ -> false

(* Does [e] re-raise the exception bound to [var]?  Recognizes
   [raise var] / [raise_notrace var] anywhere in the handler body. *)
let reraises var e =
  let found = ref false in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) -> (
        match Path.name p with
        | "Stdlib.raise" | "Stdlib.raise_notrace" -> (
            match args with
            | (_, Some { Typedtree.exp_desc = Typedtree.Texp_ident (Path.Pident id, _, _); _ }) :: _
              when String.equal (Ident.name id) var ->
                found := true
            | _ -> ())
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* ---- instantiated first-argument type of an identifier use ---- *)

let first_arg_type ~aliases ~unit ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, t1, _, _) -> (
      match Types.get_desc t1 with
      | Types.Tconstr (p, _, _) -> Some (resolve_path ~aliases ~unit p)
      | _ -> None)
  | _ -> None

let is_function (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with Typedtree.Texp_function _ -> true | _ -> false

(* ---- the walk ---- *)

let analyze_unit ~unit ~source (str : Typedtree.structure) =
  let aliases : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let defs : (string, def) Hashtbl.t = Hashtbl.create 64 in
  let def_order = ref [] in
  let tries = ref [] in
  let idents = ref [] in
  let accesses = ref [] in
  let unit_attrs = ref [] in
  let get_def name loc =
    match Hashtbl.find_opt defs name with
    | Some d -> d
    | None ->
        let d =
          {
            d_name = name;
            d_unit = unit;
            d_loc = loc;
            d_refs = [];
            d_raises = [];
            d_tree = P_seq [];
            d_attrs = [];
            d_cell = None;
          }
        in
        Hashtbl.replace defs name d;
        def_order := d :: !def_order;
        d
  in
  let init = get_def (unit ^ ".%init") { l_file = source; l_line = 1 } in
  let current = ref init in
  (* Tree collection: the innermost collector receives the nodes the walk
     emits; [collect] brackets a sub-walk into its own subtree. *)
  let init_nodes = ref [] in
  let tree_stack = ref [ init_nodes ] in
  let emit n = match !tree_stack with top :: _ -> top := n :: !top | [] -> () in
  let collect f =
    let c = ref [] in
    tree_stack := c :: !tree_stack;
    f ();
    (tree_stack := match !tree_stack with _ :: rest -> rest | [] -> []);
    P_seq (List.rev !c)
  in
  let with_def d attrs f =
    let saved = !current in
    current := d;
    d.d_attrs <- lint_exempt_scopes attrs @ d.d_attrs;
    let tree = collect f in
    (d.d_tree <-
       (match d.d_tree with P_seq [] -> tree | existing -> P_seq [ existing; tree ]));
    current := saved
  in
  (* Slice the refs/raises a sub-walk of the current def added. *)
  let slice f =
    let d = !current in
    let refs0 = d.d_refs and raises0 = d.d_raises in
    let n_refs = List.length refs0 and n_raises = List.length raises0 in
    f ();
    let take n l =
      let rec go acc n l =
        if n <= 0 then List.rev acc
        else match l with [] -> List.rev acc | x :: tl -> go (x :: acc) (n - 1) tl
      in
      go [] n l
    in
    let new_refs = take (List.length d.d_refs - n_refs) d.d_refs in
    let new_raises = take (List.length d.d_raises - n_raises) d.d_raises in
    (new_refs, new_raises)
  in
  let record_access target kind loc =
    accesses := { c_def = !current.d_name; c_target = target; c_kind = kind; c_loc = loc } :: !accesses
  in
  (* The container argument of a mutator/reader call, unwrapped through
     [!cell] so [!names.(i) <- s] targets [names]. *)
  let rec target_of (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> Some (T_global (resolve_path ~aliases ~unit p))
    | Typedtree.Texp_field (_, _, lbl) ->
        Option.map (fun f -> T_field f) (field_name ~aliases ~unit lbl)
    | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, [ (_, Some arg) ])
      when String.equal (Path.name p) "Stdlib.!" ->
        target_of arg
    | _ -> None
  in
  let record_try ~loc ~body_loc ~body_refs ~body_raises ~catchall ~notfound =
    tries :=
      {
        t_unit = unit;
        t_loc = loc;
        t_catchall = catchall;
        t_handles_notfound = notfound;
        t_body_refs = body_refs;
        t_body_raises = body_raises;
        t_body_first_line = body_loc.Location.loc_start.Lexing.pos_lnum;
        t_body_last_line = body_loc.Location.loc_end.Lexing.pos_lnum;
      }
      :: !tries
  in
  (* Classify a list of exception-handler (value) cases. *)
  let classify_handlers cases =
    let catchall =
      List.exists
        (fun (pat, rhs) ->
          pattern_is_catchall pat
          && not (match pattern_bound_var pat with Some v -> reraises v rhs | None -> false))
        cases
    in
    let notfound =
      catchall || List.exists (fun (pat, _) -> pattern_matches_ctor "Not_found" pat) cases
    in
    (catchall, notfound)
  in
  let expr sub (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
        let name = resolve_path ~aliases ~unit p in
        let loc = loc_of e.Typedtree.exp_loc in
        let d = !current in
        d.d_refs <- (name, loc) :: d.d_refs;
        emit (P_ref (name, loc));
        if String.contains name '.' then
          idents :=
            {
              h_path = name;
              h_loc = loc;
              h_arg_type = first_arg_type ~aliases ~unit e.Typedtree.exp_type;
            }
            :: !idents
    | Typedtree.Texp_construct (_, cd, _) -> (
        (match cd.Types.cstr_tag with
        | Types.Cstr_extension (p, _) ->
            let d = !current in
            d.d_raises <- resolve_path ~aliases ~unit p :: d.d_raises
        | _ -> ());
        Tast_iterator.default_iterator.expr sub e)
    | Typedtree.Texp_apply (f, args) ->
        sub.Tast_iterator.expr sub f;
        let loc = loc_of e.Typedtree.exp_loc in
        let fname =
          match f.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> Some (resolve_path ~aliases ~unit p)
          | _ -> None
        in
        (* A call whose first actual argument is a string literal: the
           shape of phase markers ([phase "seed" ...]).  Emitted before
           the argument walk so the marker precedes its own body. *)
        (match (fname, List.filter_map snd args) with
        | Some fn, { Typedtree.exp_desc = Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)); _ } :: _
          ->
            emit (P_lit (fn, s, loc))
        | _ -> ());
        List.iter (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a) args;
        (* Mutable-container access through a known stdlib entry point. *)
        let arg_at i = match List.nth_opt args i with Some (_, a) -> a | None -> None in
        (match fname with
        | Some fn -> (
            let record table kind =
              match List.assoc_opt fn table with
              | Some i -> (
                  match Option.bind (arg_at i) target_of with
                  | Some t -> record_access t kind loc
                  | None -> ())
              | None -> ()
            in
            record mutator_table Acc_write;
            record reader_table Acc_read)
        | None -> ())
    | Typedtree.Texp_field (r, _, lbl) ->
        sub.Tast_iterator.expr sub r;
        let loc = loc_of e.Typedtree.exp_loc in
        (match field_name ~aliases ~unit lbl with
        | Some f ->
            emit (P_field (f, loc));
            if lbl.Types.lbl_mut = Asttypes.Mutable then record_access (T_field f) Acc_read loc
        | None -> ())
    | Typedtree.Texp_setfield (r, _, lbl, v) ->
        sub.Tast_iterator.expr sub r;
        sub.Tast_iterator.expr sub v;
        (match field_name ~aliases ~unit lbl with
        | Some f -> record_access (T_field f) Acc_write (loc_of e.Typedtree.exp_loc)
        | None -> ())
    | Typedtree.Texp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            match (pattern_bound_var vb.Typedtree.vb_pat, is_function vb.Typedtree.vb_expr) with
            | Some v, true ->
                (* Local function: its body runs where it is referenced,
                   not where it is bound. *)
                let t = collect (fun () -> sub.Tast_iterator.expr sub vb.Typedtree.vb_expr) in
                emit (P_local (unit ^ "." ^ v, t))
            | _ -> sub.Tast_iterator.expr sub vb.Typedtree.vb_expr)
          vbs;
        sub.Tast_iterator.expr sub body
    | Typedtree.Texp_ifthenelse (c, t, eo) ->
        sub.Tast_iterator.expr sub c;
        let bt = collect (fun () -> sub.Tast_iterator.expr sub t) in
        let be =
          match eo with
          | Some e -> collect (fun () -> sub.Tast_iterator.expr sub e)
          | None -> P_seq []
        in
        emit (P_alt [ bt; be ])
    | Typedtree.Texp_while (c, b) ->
        sub.Tast_iterator.expr sub c;
        let bt = collect (fun () -> sub.Tast_iterator.expr sub b) in
        emit (P_alt [ P_seq []; P_seq [ bt; bt ] ])
    | Typedtree.Texp_for (_, _, lo, hi, _, b) ->
        sub.Tast_iterator.expr sub lo;
        sub.Tast_iterator.expr sub hi;
        let bt = collect (fun () -> sub.Tast_iterator.expr sub b) in
        emit (P_alt [ P_seq []; P_seq [ bt; bt ] ])
    | Typedtree.Texp_try (body, cases) ->
        let body_tree = ref (P_seq []) in
        let body_refs, body_raises =
          slice (fun () -> body_tree := collect (fun () -> sub.Tast_iterator.expr sub body))
        in
        let handlers = List.map (fun c -> (c.Typedtree.c_lhs, c.Typedtree.c_rhs)) cases in
        let catchall, notfound = classify_handlers handlers in
        if catchall || notfound then
          record_try ~loc:(loc_of e.Typedtree.exp_loc) ~body_loc:body.Typedtree.exp_loc ~body_refs
            ~body_raises ~catchall ~notfound;
        let handler_trees =
          List.map
            (fun c ->
              collect (fun () ->
                  Option.iter (sub.Tast_iterator.expr sub) c.Typedtree.c_guard;
                  sub.Tast_iterator.expr sub c.Typedtree.c_rhs))
            cases
        in
        emit (P_try (!body_tree, handler_trees))
    | Typedtree.Texp_match (scrut, cases, _) ->
        let scrut_tree = ref (P_seq []) in
        let body_refs, body_raises =
          slice (fun () -> scrut_tree := collect (fun () -> sub.Tast_iterator.expr sub scrut))
        in
        let value_cases, exn_cases =
          List.fold_right
            (fun c (vs, es) ->
              match Typedtree.split_pattern c.Typedtree.c_lhs with
              | _, Some exn_pat -> (vs, (exn_pat, c) :: es)
              | Some _, None -> ((c.Typedtree.c_lhs, c) :: vs, es)
              | None, None -> (vs, es))
            cases ([], [])
        in
        (if exn_cases <> [] then
           let handlers = List.map (fun (p, c) -> (p, c.Typedtree.c_rhs)) exn_cases in
           let catchall, notfound = classify_handlers handlers in
           if catchall || notfound then
             record_try ~loc:(loc_of e.Typedtree.exp_loc) ~body_loc:scrut.Typedtree.exp_loc
               ~body_refs ~body_raises ~catchall ~notfound);
        let case_tree (_, c) =
          collect (fun () ->
              Option.iter (sub.Tast_iterator.expr sub) c.Typedtree.c_guard;
              sub.Tast_iterator.expr sub c.Typedtree.c_rhs)
        in
        let exn_trees = List.map case_tree exn_cases in
        let value_trees = List.map case_tree value_cases in
        if exn_trees <> [] then emit (P_try (!scrut_tree, exn_trees))
        else emit !scrut_tree;
        if value_trees <> [] then emit (P_alt value_trees)
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let structure_item sub (si : Typedtree.structure_item) =
    match si.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let loc = loc_of vb.Typedtree.vb_pat.Typedtree.pat_loc in
            let name =
              match pattern_bound_var vb.Typedtree.vb_pat with Some v -> v | None -> "%init"
            in
            let d = get_def (unit ^ "." ^ name) loc in
            if name <> "%init" then
              (match allocator_kind ~aliases ~unit vb.Typedtree.vb_expr with
              | Some kind -> d.d_cell <- Some kind
              | None -> ());
            with_def d vb.Typedtree.vb_attributes (fun () ->
                sub.Tast_iterator.expr sub vb.Typedtree.vb_expr))
          vbs
    | Typedtree.Tstr_module mb ->
        (match (mb.Typedtree.mb_id, mb.Typedtree.mb_expr.Typedtree.mod_desc) with
        | Some id, Typedtree.Tmod_ident (p, _) ->
            Hashtbl.replace aliases (Ident.name id) (resolve_path ~aliases ~unit p)
        | Some id, Typedtree.Tmod_apply (f, _, _)
          when Option.equal String.equal (module_path ~aliases ~unit f) (Some "Stdlib.Hashtbl.Make")
          ->
            (* A [Hashtbl.Make] instance: its functions are read as the
               functor's, so the container tables above apply to them. *)
            Hashtbl.replace aliases (Ident.name id) "Stdlib.Hashtbl.Make"
        | _ -> ());
        Tast_iterator.default_iterator.structure_item sub si
    | Typedtree.Tstr_attribute a ->
        unit_attrs := lint_exempt_scopes [ a ] @ !unit_attrs;
        Tast_iterator.default_iterator.structure_item sub si
    | _ -> Tast_iterator.default_iterator.structure_item sub si
  in
  let it = { Tast_iterator.default_iterator with expr; structure_item } in
  it.structure it str;
  init.d_tree <- P_seq (List.rev !init_nodes);
  {
    a_unit = unit;
    a_source = source;
    a_defs = List.rev !def_order;
    a_tries = List.rev !tries;
    a_idents = List.rev !idents;
    a_accesses = List.rev !accesses;
    a_attrs = !unit_attrs;
  }

(* ---- cross-unit graph ---- *)

type graph = { nodes : (string, def) Hashtbl.t }

let build_graph analyses =
  let nodes = Hashtbl.create 1024 in
  List.iter
    (fun a ->
      List.iter
        (fun d ->
          match Hashtbl.find_opt nodes d.d_name with
          | None -> Hashtbl.replace nodes d.d_name d
          | Some existing ->
              (* Same name from another unit's walk (merged module paths):
                 union the edges. *)
              existing.d_refs <- d.d_refs @ existing.d_refs;
              existing.d_raises <- d.d_raises @ existing.d_raises;
              existing.d_attrs <- d.d_attrs @ existing.d_attrs;
              (if existing.d_cell = None then existing.d_cell <- d.d_cell);
              existing.d_tree <- P_seq [ existing.d_tree; d.d_tree ])
        a.a_defs)
    analyses;
  { nodes }
