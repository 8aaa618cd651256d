module Value = Vnl_relation.Value
module Schema = Vnl_relation.Schema
module Tuple = Vnl_relation.Tuple
module Ast = Vnl_sql.Ast

exception Query_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Query_error s)) fmt

let efail fmt = Printf.ksprintf (fun s -> raise (Eval.Eval_error s)) fmt

type result = { columns : string list; rows : Value.t list list }

(* ---------- runtime representation ---------- *)

(* One source row: one tuple per FROM table (resolved positionally at
   compile time) plus the parameter bindings, pre-resolved to slots. *)
type rt = { tuples : Tuple.t array; params : Value.t option array }

(* A compiled scalar expression: either folded to a constant at prepare
   time or a closure over the runtime row. *)
type ce = Const of Value.t | Dyn of (rt -> Value.t)

let to_fn = function Const v -> fun _ -> v | Dyn f -> f

let is_const = function Const _ -> true | Dyn _ -> false

let dummy_rt = { tuples = [||]; params = [||] }

(* Fold a node whose children are all constants by running its closure now.
   An exception is captured and re-raised on evaluation instead, preserving
   the interpreter's lazy error semantics: a failing constant expression in
   a query that produces no rows never surfaces. *)
let fold_if children f =
  if List.for_all is_const children then
    match f dummy_rt with
    | v -> Const v
    | exception e -> Dyn (fun _ -> raise e)
  else Dyn f

(* ---------- compile-time context ---------- *)

type binding = {
  label : string;  (** Alias if given, else table name. *)
  schema : Schema.t;
  source : int;  (** Index of this table's tuple in [rt.tuples]. *)
}

(* Parameter names are interned into slots shared by every compiled
   expression of the plan; [rt.params] is indexed by slot. *)
type pctx = { slots : (string, int) Hashtbl.t }

type ctx = { bindings : binding list; pctx : pctx }

let param_slot pctx name =
  match Hashtbl.find_opt pctx.slots name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length pctx.slots in
    Hashtbl.add pctx.slots name i;
    i

(* Resolve (qualifier, column) to (source, attribute) with the interpreter's
   ambiguity rule.  Failures are deferred to evaluation time: the
   interpreter only reports an unknown column when a row forces it. *)
let resolve ctx q name =
  let candidates =
    List.filter_map
      (fun b ->
        match q with
        | Some q when not (String.equal q b.label) -> None
        | _ -> (
          match Schema.index_of_opt b.schema name with
          | Some i -> Some (b.source, i)
          | None -> None))
      ctx.bindings
  in
  match candidates with
  | [ pos ] -> Ok pos
  | [] ->
    let q = match q with Some q -> q ^ "." | None -> "" in
    Error (Printf.sprintf "unknown column %s%s" q name)
  | _ :: _ :: _ -> Error (Printf.sprintf "ambiguous column %s" name)

let div_vals va vb =
  try Value.div va vb with Division_by_zero -> efail "division by zero"

(* ---------- row-context compilation (mirrors Eval.eval) ---------- *)

let rec compile ctx (e : Ast.expr) : ce =
  match e with
  | Ast.Lit v -> Const v
  | Ast.Col (q, name) -> (
    match resolve ctx q name with
    | Ok (si, ai) -> Dyn (fun rt -> Tuple.get rt.tuples.(si) ai)
    | Error msg -> Dyn (fun _ -> raise (Eval.Eval_error msg)))
  | Ast.Param p ->
    let slot = param_slot ctx.pctx p in
    Dyn
      (fun rt ->
        match rt.params.(slot) with
        | Some v -> v
        | None -> efail "unbound parameter :%s" p)
  | Ast.Binop (Ast.And, a, b) -> binop ctx Eval.and3 a b
  | Ast.Binop (Ast.Or, a, b) -> binop ctx Eval.or3 a b
  | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) ->
    binop ctx (Eval.compare_op op) a b
  | Ast.Binop (Ast.Add, a, b) -> binop ctx Value.add a b
  | Ast.Binop (Ast.Sub, a, b) -> binop ctx Value.sub a b
  | Ast.Binop (Ast.Mul, a, b) -> binop ctx Value.mul a b
  | Ast.Binop (Ast.Div, a, b) -> binop ctx div_vals a b
  | Ast.Unop (Ast.Not, a) -> unop ctx Eval.not3 a
  | Ast.Unop (Ast.Neg, a) -> unop ctx Value.neg a
  | Ast.Case (arms, default) ->
    let carms = List.map (fun (c, v) -> (compile ctx c, compile ctx v)) arms in
    let cdef = Option.map (compile ctx) default in
    let farms = List.map (fun (c, v) -> (to_fn c, to_fn v)) carms in
    let fdef = match cdef with Some d -> to_fn d | None -> fun _ -> Value.Null in
    let children =
      List.concat_map (fun (c, v) -> [ c; v ]) carms
      @ (match cdef with Some d -> [ d ] | None -> [])
    in
    fold_if children (fun rt ->
        let rec arm = function
          | [] -> fdef rt
          | (fc, fv) :: rest -> if Eval.truthy (fc rt) then fv rt else arm rest
        in
        arm farms)
  | Ast.Agg _ -> Dyn (fun _ -> efail "aggregate used outside of a grouped query")
  | Ast.Is_null a ->
    let ca = compile ctx a in
    let fa = to_fn ca in
    fold_if [ ca ] (fun rt -> Value.Bool (Value.is_null (fa rt)))
  | Ast.Is_not_null a ->
    let ca = compile ctx a in
    let fa = to_fn ca in
    fold_if [ ca ] (fun rt -> Value.Bool (not (Value.is_null (fa rt))))
  | Ast.In (a, cands) ->
    let ca = compile ctx a in
    let cc = List.map (compile ctx) cands in
    let fa = to_fn ca and fc = List.map to_fn cc in
    (* Candidates stay lazy: a NULL subject or an early match skips the
       rest, exactly like the interpreter's scan. *)
    fold_if (ca :: cc) (fun rt ->
        let subject = fa rt in
        if Value.is_null subject then Value.Null
        else
          let rec scan saw_null = function
            | [] -> if saw_null then Value.Null else Value.Bool false
            | f :: rest ->
              let v = f rt in
              if Value.is_null v then scan true rest
              else if Value.compare subject v = 0 then Value.Bool true
              else scan saw_null rest
          in
          scan false fc)
  | Ast.Between (a, lo, hi) ->
    let ca = compile ctx a and clo = compile ctx lo and chi = compile ctx hi in
    let fa = to_fn ca and flo = to_fn clo and fhi = to_fn chi in
    fold_if [ ca; clo; chi ] (fun rt ->
        let v = fa rt in
        Eval.and3
          (Eval.compare_op Ast.Ge v (flo rt))
          (Eval.compare_op Ast.Le v (fhi rt)))
  | Ast.Like (a, pattern) ->
    let ca = compile ctx a in
    let fa = to_fn ca in
    fold_if [ ca ] (fun rt ->
        match fa rt with
        | Value.Null -> Value.Null
        | Value.Str s -> Value.Bool (Eval.like_match pattern s)
        | v -> efail "LIKE applied to non-string %s" (Value.to_string v))

and binop ctx op a b =
  let ca = compile ctx a in
  let cb = compile ctx b in
  let fa = to_fn ca and fb = to_fn cb in
  (* The interpreter applies [op (eval a) (eval b)], and OCaml evaluates the
     second argument first — so when both operands fail, the right one's
     error wins.  Keep that order. *)
  fold_if [ ca; cb ] (fun rt ->
      let vb = fb rt in
      let va = fa rt in
      op va vb)

and unop ctx op a =
  let ca = compile ctx a in
  let fa = to_fn ca in
  fold_if [ ca ] (fun rt -> op (fa rt))

(* ---------- group-context compilation ---------- *)

(* Grouping streams: each row folds into its group's accumulators as it
   arrives, so no group keeps its member rows.  An aggregate compiles to a
   spec — its kind and compiled argument — registered in the group
   compile context, and to a closure that reads the group's accumulator
   for that spec.  Structurally equal aggregates share one spec. *)
type spec = { kind : Ast.agg; arg : (rt -> Value.t) option }

type gctx = { row : ctx; mutable specs : (Ast.agg * Ast.expr option * spec) list }

let register gctx kind arg =
  let rec find i = function
    | [] ->
      let spec = { kind; arg = Option.map (fun e -> to_fn (compile gctx.row e)) arg } in
      gctx.specs <- (kind, arg, spec) :: gctx.specs;
      List.length gctx.specs - 1
    | (k, a, _) :: rest -> if k = kind && a = arg then i else find (i - 1) rest
  in
  find (List.length gctx.specs - 1) gctx.specs

(* AVG's running total, in an all-float record so updating it does not box. *)
type total = { mutable total : float }

(* One group's running state for one spec.  [n] counts the non-NULL inputs
   folded (every row, for a star COUNT).  SUM stays an unboxed int in [isum]
   while every input is [Int] — the interpreter's left fold over [Int]s
   gives the same wrapped int — and continues as a [Value.t] left fold in
   [v] from the first other input.  [v] also carries MIN/MAX.

   Errors are kept, not raised: the interpreter only computes an aggregate
   when an expression reads it, so a failure in a group that HAVING drops
   never surfaces.  It evaluates every argument before folding, so an
   argument error ([arg_failed]) wins over an earlier fold error. *)
type acc = {
  mutable n : int;
  mutable isum : int;
  mutable boxed : bool;
  mutable v : Value.t;
  avg : total;
  mutable err : exn option;
  mutable arg_failed : bool;
}

let fresh_acc () =
  {
    n = 0;
    isum = 0;
    boxed = false;
    v = Value.Null;
    avg = { total = 0.0 };
    err = None;
    arg_failed = false;
  }

let one = Value.Int 1

let fold_value kind a v =
  (match kind with
  | Ast.Count -> ()
  | Ast.Sum -> (
    match v with
    | Value.Int i when not a.boxed -> a.isum <- a.isum + i
    | _ ->
      a.v <-
        (if a.n = 0 then v
         else if a.boxed then Value.add a.v v
         else Value.add (Value.Int a.isum) v);
      a.boxed <- true)
  | Ast.Min -> if a.n = 0 || Value.compare v a.v < 0 then a.v <- v
  | Ast.Max -> if a.n = 0 || Value.compare v a.v > 0 then a.v <- v
  | Ast.Avg -> a.avg.total <- a.avg.total +. Value.to_float v);
  a.n <- a.n + 1

let feed spec a rt =
  if not a.arg_failed then
    match (match spec.arg with None -> one | Some f -> f rt) with
    | exception e ->
      a.arg_failed <- true;
      a.err <- Some e
    | Value.Null -> ()
    | v -> (
      match a.err with
      | Some _ -> ()
      | None -> ( try fold_value spec.kind a v with e -> a.err <- Some e))

let read kind a =
  match a.err with
  | Some e -> raise e
  | None -> (
    match kind with
    | Ast.Count -> Value.Int a.n
    | _ when a.n = 0 -> Value.Null
    | Ast.Sum -> if a.boxed then a.v else Value.Int a.isum
    | Ast.Min | Ast.Max -> a.v
    | Ast.Avg -> Value.Float (a.avg.total /. float_of_int a.n))

(* A group at runtime: the representative row backing non-aggregate leaves
   (its first row; [None] for the empty global-aggregate group) and one
   accumulator per spec. *)
type grt = { rep : rt option; accs : acc array }

let apply_binop = function
  | Ast.And -> Eval.and3
  | Ast.Or -> Eval.or3
  | (Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op -> Eval.compare_op op
  | Ast.Add -> Value.add
  | Ast.Sub -> Value.sub
  | Ast.Mul -> Value.mul
  | Ast.Div -> div_vals

let rec gcompile gctx (e : Ast.expr) : grt -> Value.t =
  let ctx = gctx.row in
  match e with
  | Ast.Agg (kind, arg) ->
    let i = register gctx kind arg in
    fun g -> read kind (Array.unsafe_get g.accs i)
  | Ast.Lit v -> fun _ -> v
  | Ast.Col (q, name) -> (
    let f = to_fn (compile ctx e) in
    fun g ->
      match g.rep with Some rt -> f rt | None -> Eval.no_columns q name)
  | Ast.Param p -> (
    let f = to_fn (compile ctx e) in
    fun g ->
      match g.rep with
      | Some rt -> f rt
      (* The interpreter's empty-group representative environment carries no
         parameter bindings at all, so the reference fails even when the
         caller supplied the parameter. *)
      | None -> efail "unbound parameter :%s" p)
  | Ast.Binop (op, a, b) ->
    let ga = gcompile gctx a and gb = gcompile gctx b in
    let apply = apply_binop op in
    fun g ->
      let va = ga g in
      let vb = gb g in
      apply va vb
  | Ast.Unop (Ast.Not, a) ->
    let ga = gcompile gctx a in
    fun g -> Eval.not3 (ga g)
  | Ast.Unop (Ast.Neg, a) ->
    let ga = gcompile gctx a in
    fun g -> Value.neg (ga g)
  | Ast.Case (arms, default) ->
    let garms = List.map (fun (c, v) -> (gcompile gctx c, gcompile gctx v)) arms in
    let gdef = Option.map (gcompile gctx) default in
    fun g ->
      let rec arm = function
        | [] -> ( match gdef with Some d -> d g | None -> Value.Null)
        | (gc, gv) :: rest -> if Eval.truthy (gc g) then gv g else arm rest
      in
      arm garms
  | Ast.Is_null a ->
    let ga = gcompile gctx a in
    fun g -> Value.Bool (Value.is_null (ga g))
  | Ast.Is_not_null a ->
    let ga = gcompile gctx a in
    fun g -> Value.Bool (not (Value.is_null (ga g)))
  | Ast.In (a, cands) ->
    let ga = gcompile gctx a in
    let gcands = List.map (gcompile gctx) cands in
    (* eval_agg lowers every operand to a literal before dispatching, so
       candidates are evaluated eagerly here, unlike the row context. *)
    fun g ->
      let values = List.map (fun gc -> gc g) gcands in
      let subject = ga g in
      if Value.is_null subject then Value.Null
      else
        let rec scan saw_null = function
          | [] -> if saw_null then Value.Null else Value.Bool false
          | v :: rest ->
            if Value.is_null v then scan true rest
            else if Value.compare subject v = 0 then Value.Bool true
            else scan saw_null rest
        in
        scan false values
  | Ast.Between (a, lo, hi) ->
    let ga = gcompile gctx a and glo = gcompile gctx lo and ghi = gcompile gctx hi in
    fun g ->
      let v = ga g in
      let vlo = glo g in
      let vhi = ghi g in
      Eval.and3 (Eval.compare_op Ast.Ge v vlo) (Eval.compare_op Ast.Le v vhi)
  | Ast.Like (a, pattern) -> (
    let ga = gcompile gctx a in
    fun g ->
      match ga g with
      | Value.Null -> Value.Null
      | Value.Str s -> Value.Bool (Eval.like_match pattern s)
      | v -> efail "LIKE applied to non-string %s" (Value.to_string v))

(* ---------- access paths ---------- *)

type access =
  | Full_scan
  | Unique_probe of (rt -> Value.t) list
  | Index_scan of string * (rt -> Value.t) list

let rec conjuncts = function
  | Ast.Binop (Ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* Top-level [col = expr] conjuncts binding attributes of the table labeled
   [label].  Probe values are compiled with no column bindings, so an
   expression the interpreter's [const_eval] would reject raises
   {!Eval.Eval_error} when probed and the access path degrades to a scan. *)
let equality_bindings ctx ~label where =
  match where with
  | None -> []
  | Some w ->
    let rhs_ctx = { ctx with bindings = [] } in
    List.filter_map
      (fun c ->
        let pair =
          match c with
          | Ast.Binop (Ast.Eq, Ast.Col (q, name), e) -> Some (q, name, e)
          | Ast.Binop (Ast.Eq, e, Ast.Col (q, name)) -> Some (q, name, e)
          | _ -> None
        in
        match pair with
        | Some (q, name, e) when q = None || q = Some label ->
          Some (name, to_fn (compile rhs_ctx e))
        | Some _ | None -> None)
      (conjuncts w)

(* Same preference order as the interpreter: whole unique key bound, then
   the longest covered secondary index, then a scan.  Decided once at
   prepare time; the residual WHERE makes the choice cost-only. *)
let choose_access table bound =
  let schema = Table.schema table in
  let key_attrs =
    List.map (fun i -> (Schema.attribute schema i).Schema.name) (Schema.key_indices schema)
  in
  let value_of attr = List.assoc_opt attr bound in
  let all_key_values = List.map value_of key_attrs in
  if Table.has_key table && key_attrs <> [] && List.for_all Option.is_some all_key_values
  then Unique_probe (List.map Option.get all_key_values)
  else
    match Table.index_covering table (List.map fst bound) with
    | Some name ->
      let attrs = Table.index_attrs table name in
      Index_scan (name, List.map (fun a -> Option.get (value_of a)) attrs)
    | None -> Full_scan

let describe_access table = function
  | Full_scan -> Printf.sprintf "%s: full scan" (Table.name table)
  | Unique_probe _ -> Printf.sprintf "%s: unique-key probe" (Table.name table)
  | Index_scan (name, _) ->
    Printf.sprintf "%s: index scan via %s" (Table.name table) name

(* ---------- select-level compilation ---------- *)

let item_label i = function
  | Ast.Star -> fail "SELECT * cannot be labeled"
  | Ast.Item (_, Some alias) -> alias
  | Ast.Item (Ast.Col (_, name), None) -> name
  | Ast.Item (Ast.Agg (kind, _), None) ->
    String.lowercase_ascii
      (match kind with
      | Ast.Sum -> "sum"
      | Ast.Count -> "count"
      | Ast.Min -> "min"
      | Ast.Max -> "max"
      | Ast.Avg -> "avg")
  | Ast.Item (_, None) -> Printf.sprintf "col%d" i

let expand_items bindings items =
  List.concat_map
    (fun item ->
      match item with
      | Ast.Star ->
        List.concat_map
          (fun b ->
            List.map
              (fun a -> Ast.Item (Ast.Col (Some b.label, a.Schema.name), Some a.Schema.name))
              (Schema.attributes b.schema))
          bindings
      | Ast.Item _ -> [ item ])
    items

let is_grouped (s : Ast.select) =
  s.Ast.group_by <> []
  || List.exists
       (function Ast.Star -> false | Ast.Item (e, _) -> Ast.has_aggregate e)
       s.Ast.items
  || match s.Ast.having with Some e -> Ast.has_aggregate e | None -> false

type proj =
  | Flat of {
      out : (rt -> Value.t) list;
      order : (rt -> Value.t) list;
    }
  | Grouped of grouped

and grouped = {
  keys : (rt -> Value.t) array;
  specs : spec array;  (** Every aggregate that [having], [out] and [order] read. *)
  global : bool;  (** No GROUP BY: an empty input still yields one row. *)
  having : (grt -> Value.t) option;
  out : (grt -> Value.t) list;
  order : (grt -> Value.t) list;
}

type dep = { dep_name : string; dep_table : Table.t; dep_version : int }

type t = {
  sources : (Table.t * access) list;  (** Empty for view plans. *)
  is_view : bool;
  where_fn : (rt -> Value.t) option;
  proj : proj;
  dirs : Ast.order_dir list;
  distinct : bool;
  limit : (int * int) option;
  plan_columns : string list;
  nparams : int;
  param_slots : (string, int) Hashtbl.t;
  deps : dep list;
  explain_lines : string list;
}

let compile_select ctx ~columns_override (s : Ast.select) =
  let items = expand_items ctx.bindings s.Ast.items in
  let columns = List.mapi item_label items in
  let columns = match columns_override with Some c -> c | None -> columns in
  let exprs =
    List.map (function Ast.Item (e, _) -> e | Ast.Star -> assert false) items
  in
  let where_fn = Option.map (fun w -> to_fn (compile ctx w)) s.Ast.where in
  let dirs = List.map snd s.Ast.order_by in
  let proj =
    if is_grouped s then begin
      let gctx = { row = ctx; specs = [] } in
      let having = Option.map (gcompile gctx) s.Ast.having in
      let out = List.map (gcompile gctx) exprs in
      let order = List.map (fun (e, _) -> gcompile gctx e) s.Ast.order_by in
      Grouped
        {
          keys = Array.of_list (List.map (fun e -> to_fn (compile ctx e)) s.Ast.group_by);
          specs = Array.of_list (List.rev_map (fun (_, _, spec) -> spec) gctx.specs);
          global = s.Ast.group_by = [];
          having;
          out;
          order;
        }
    end
    else
      (* The interpreter ignores HAVING on non-grouped queries; so do we. *)
      Flat
        {
          out = List.map (fun e -> to_fn (compile ctx e)) exprs;
          order = List.map (fun (e, _) -> to_fn (compile ctx e)) s.Ast.order_by;
        }
  in
  (columns, where_fn, proj, dirs)

let prepare ?resolve db (s : Ast.select) =
  (* [resolve] overrides name resolution for names it knows — a catalog
     generation's registry, so a pinned session compiles against its own
     generation's physical tables even while a newer one is being staged
     under the same logical names.  Unknown names still fall through to the
     database catalog. *)
  let lookup name =
    match resolve with
    | Some f -> ( match f name with Some t -> Some t | None -> Database.table db name)
    | None -> Database.table db name
  in
  let offset = ref 0 in
  let pairs =
    List.map
      (fun (table_name, alias) ->
        let table =
          match lookup table_name with
          | Some t -> t
          | None -> fail "no such table %S" table_name
        in
        let binding =
          {
            label = (match alias with Some a -> a | None -> table_name);
            schema = Table.schema table;
            source = !offset;
          }
        in
        incr offset;
        (table, binding))
      s.Ast.from
  in
  (match pairs with [] -> fail "empty FROM clause" | _ -> ());
  let bindings = List.map snd pairs in
  let pctx = { slots = Hashtbl.create 8 } in
  let ctx = { bindings; pctx } in
  let sources =
    List.map
      (fun (table, binding) ->
        let bound = equality_bindings ctx ~label:binding.label s.Ast.where in
        (table, choose_access table bound))
      pairs
  in
  let columns, where_fn, proj, dirs = compile_select ctx ~columns_override:None s in
  {
    sources;
    is_view = false;
    where_fn;
    proj;
    dirs;
    distinct = s.Ast.distinct;
    limit = s.Ast.limit;
    plan_columns = columns;
    nparams = Hashtbl.length pctx.slots;
    param_slots = pctx.slots;
    deps =
      List.map
        (fun (table, _) ->
          { dep_name = Table.name table; dep_table = table; dep_version = Table.version table })
        pairs;
    explain_lines = List.map (fun (t, a) -> describe_access t a) sources;
  }

let prepare_view ~label ?columns schema (s : Ast.select) =
  let bindings = [ { label; schema; source = 0 } ] in
  let pctx = { slots = Hashtbl.create 8 } in
  let ctx = { bindings; pctx } in
  let cols, where_fn, proj, dirs = compile_select ctx ~columns_override:columns s in
  {
    sources = [];
    is_view = true;
    where_fn;
    proj;
    dirs;
    distinct = s.Ast.distinct;
    limit = s.Ast.limit;
    plan_columns = cols;
    nparams = Hashtbl.length pctx.slots;
    param_slots = pctx.slots;
    deps = [];
    explain_lines = [ label ^ ": view extract" ];
  }

let columns t = t.plan_columns

let explain t = String.concat "\n" t.explain_lines

let full_scan_only t =
  List.for_all (fun (_, a) -> match a with Full_scan -> true | _ -> false) t.sources

(* A plan stays valid while every table it touches is still the same
   physical table (dropping and recreating a name invalidates) and has seen
   no index DDL since prepare time. *)
let valid ?resolve db t =
  let lookup name =
    match resolve with
    | Some f -> ( match f name with Some tbl -> Some tbl | None -> Database.table db name)
    | None -> Database.table db name
  in
  List.for_all
    (fun d ->
      match lookup d.dep_name with
      | Some tbl -> tbl == d.dep_table && Table.version tbl = d.dep_version
      | None -> false)
    t.deps

(* ---------- execution ---------- *)

let compare_value_lists a b =
  let rec loop xs ys =
    match (xs, ys) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: xs, y :: ys ->
      let c = Value.compare x y in
      if c <> 0 then c else loop xs ys
  in
  loop a b

let dedupe rows =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun row ->
      let key = List.map Value.to_string row in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    rows

(* First binding wins, mirroring the interpreter's [List.assoc_opt]. *)
let bind_params t params =
  let arr = Array.make t.nparams None in
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt t.param_slots name with
      | Some i -> if Option.is_none arr.(i) then arr.(i) <- Some v
      | None -> ())
    params;
  arr

let rows_via_access table access prt =
  let scan_all () =
    let acc = ref [] in
    Table.scan table (fun _ tuple -> acc := tuple :: !acc);
    List.rev !acc
  in
  (* A probe value that fails to evaluate (unbound parameter, type error)
     is a binding the interpreter would never have formed; degrade to the
     scan it would have used.  Results are unaffected either way because
     the full WHERE runs as a residual filter. *)
  let probe fns =
    match List.map (fun f -> f prt) fns with
    | vs -> Some vs
    | exception Eval.Eval_error _ -> None
  in
  match access with
  | Full_scan -> scan_all ()
  | Unique_probe fns -> (
    match probe fns with
    | None -> scan_all ()
    | Some key -> (
      match Table.find_by_key table key with Some (_, t) -> [ t ] | None -> []))
  | Index_scan (name, fns) -> (
    match probe fns with
    | None -> scan_all ()
    | Some values ->
      List.filter_map (fun rid -> Table.get table rid) (Table.index_lookup table ~name values))

let keep t rt = match t.where_fn with None -> true | Some f -> Eval.truthy (f rt)

let source_rts t params =
  let prt = { tuples = [||]; params } in
  let rows = ref [] in
  let rec product acc = function
    | [] ->
      let rt = { tuples = Array.of_list (List.rev acc); params } in
      if keep t rt then rows := rt :: !rows
    | (table, access) :: rest ->
      List.iter
        (fun tuple -> product (tuple :: acc) rest)
        (rows_via_access table access prt)
  in
  product [] t.sources;
  List.rev !rows

(* ---------- grouping ---------- *)

let rec keys_equal a b i =
  i >= Array.length a
  || (Value.compare (Array.unsafe_get a i) (Array.unsafe_get b i) = 0 && keys_equal a b (i + 1))

(* Key equality is [Value.compare], the interpreter's group map order;
   [Value.hash] agrees with it across Int and Float. *)
module Keytbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b = keys_equal a b 0

  let hash key =
    let h = ref 0 in
    for i = 0 to Array.length key - 1 do
      h := (!h * 31) + Value.hash (Array.unsafe_get key i)
    done;
    !h land max_int
end)

(* A row's key is evaluated into [scratch] and looked up as is, so a row
   that joins an existing group allocates nothing; a new group copies the
   key and its first row.  [groups] holds first-seen order, newest first.

   The interpreter filters every row before it evaluates any key, so a key
   error is held back until the rows run out: a WHERE error on a later row
   must still win.  Past a key error the remaining rows are only filtered. *)
type table = {
  g : grouped;
  scratch : Value.t array;
  index : grt Keytbl.t;
  mutable groups : grt list;
  mutable key_error : exn option;
}

let table_create g =
  {
    g;
    scratch = Array.make (Array.length g.keys) Value.Null;
    index = Keytbl.create 64;
    groups = [];
    key_error = None;
  }

let fresh_group g rep = { rep; accs = Array.init (Array.length g.specs) (fun _ -> fresh_acc ()) }

let new_group tbl rt =
  let grp = fresh_group tbl.g (Some { rt with tuples = Array.copy rt.tuples }) in
  Keytbl.add tbl.index (Array.copy tbl.scratch) grp;
  tbl.groups <- grp :: tbl.groups;
  grp

(* Fold one filtered row into its group.  [rt] may be a scratch row the
   caller reuses: a new group keeps a copy. *)
let add_row tbl rt =
  match tbl.key_error with
  | Some _ -> ()
  | None -> (
    let keys = tbl.g.keys in
    match
      for i = 0 to Array.length keys - 1 do
        Array.unsafe_set tbl.scratch i ((Array.unsafe_get keys i) rt)
      done
    with
    | exception e -> tbl.key_error <- Some e
    | () ->
      let grp =
        match Keytbl.find tbl.index tbl.scratch with
        | grp -> grp
        | exception Not_found -> new_group tbl rt
      in
      let specs = tbl.g.specs in
      for i = 0 to Array.length specs - 1 do
        feed (Array.unsafe_get specs i) (Array.unsafe_get grp.accs i) rt
      done)

let project_groups tbl =
  (match tbl.key_error with Some e -> raise e | None -> ());
  let g = tbl.g in
  let groups =
    match tbl.groups with
    | [] when g.global -> [ fresh_group g None ]
    | groups -> List.rev groups
  in
  List.filter_map
    (fun grp ->
      let survives = match g.having with None -> true | Some h -> Eval.truthy (h grp) in
      if survives then Some (List.map (fun f -> f grp) g.out, List.map (fun f -> f grp) g.order)
      else None)
    groups

let project_rows out order rts =
  List.map (fun rt -> (List.map (fun f -> f rt) out, List.map (fun f -> f rt) order)) rts

let finish t projected =
  let sorted =
    match t.dirs with
    | [] -> List.map fst projected
    | dirs ->
      let cmp (_, ka) (_, kb) =
        let rec loop ks1 ks2 ds =
          match (ks1, ks2, ds) with
          | [], [], _ -> 0
          | k1 :: r1, k2 :: r2, d :: rd ->
            let c = Value.compare k1 k2 in
            let c = match d with Ast.Asc -> c | Ast.Desc -> -c in
            if c <> 0 then c else loop r1 r2 rd
          | _ -> 0
        in
        loop ka kb dirs
      in
      List.map fst (List.stable_sort cmp projected)
  in
  let deduped = if t.distinct then dedupe sorted else sorted in
  let final =
    match t.limit with
    | None -> deduped
    | Some (n, m) -> List.filteri (fun i _ -> i >= m && i < m + n) deduped
  in
  { columns = t.plan_columns; rows = final }

let execute ?(params = []) t =
  if t.is_view then invalid_arg "Plan.execute: view plan; use execute_view";
  let rts = source_rts t (bind_params t params) in
  finish t
    (match t.proj with
    | Flat { out; order } -> project_rows out order rts
    | Grouped g ->
      let tbl = table_create g in
      List.iter (add_row tbl) rts;
      project_groups tbl)

let execute_view ?(params = []) t tuples =
  if not t.is_view then invalid_arg "Plan.execute_view: not a view plan";
  let params = bind_params t params in
  finish t
    (match t.proj with
    | Flat { out; order } ->
      let rts =
        List.filter_map
          (fun tuple ->
            let rt = { tuples = [| tuple |]; params } in
            if keep t rt then Some rt else None)
          tuples
      in
      project_rows out order rts
    | Grouped g ->
      (* One scratch row for the whole scan: grouping keeps a copy only of
         each group's first row. *)
      let tbl = table_create g and rt = { tuples = [| Tuple.unsafe_of_array [||] |]; params } in
      List.iter
        (fun tuple ->
          rt.tuples.(0) <- tuple;
          if keep t rt then add_row tbl rt)
        tuples;
      project_groups tbl)

(* ---------- result helpers ---------- *)

let sort_rows r = { r with rows = List.sort compare_value_lists r.rows }

let result_equal a b =
  List.equal String.equal a.columns b.columns
  && List.equal
       (fun x y -> compare_value_lists x y = 0)
       (sort_rows a).rows (sort_rows b).rows

let pp_result ppf r =
  let cells = List.map (List.map Value.to_string) r.rows in
  Format.pp_print_string ppf (Vnl_util.Ascii_table.render ~header:r.columns cells)
