open Unit_tir

type estimate = {
  est_cycles : float;
  est_seconds : float;
  est_compute_cycles : float;
  est_l2_cycles : float;
  est_dram_cycles : float;
  est_parallel_grains : int;
  est_threads_used : float;
}

(* ---------- instruction-issue analysis (pass A) ---------- *)

type comp = {
  issue : float;  (** cycles for one execution, stalls of inner loops included *)
  instr_bytes : float;  (** straight-line code size of one execution *)
  accum_ops : float;  (** accumulates whose dependency bound is still pending *)
  chains : float;  (** independent accumulation targets *)
  lat : float;  (** latency of the accumulating instruction *)
  accum_indices : Texpr.t list;  (** accumulation target indices *)
  stall : float;  (** of [issue], cycles attributable to RAW-hazard stalls *)
  icache : float;  (** of [issue], cycles from the unroll/I-cache penalty *)
  macs : float;  (** multiply-accumulates performed per execution *)
}

let zero_comp =
  { issue = 0.0; instr_bytes = 0.0; accum_ops = 0.0; chains = 0.0; lat = 0.0;
    accum_indices = []; stall = 0.0; icache = 0.0; macs = 0.0 }

let combine a b =
  { issue = a.issue +. b.issue;
    instr_bytes = a.instr_bytes +. b.instr_bytes;
    accum_ops = a.accum_ops +. b.accum_ops;
    chains = a.chains +. b.chains;
    lat = Float.max a.lat b.lat;
    accum_indices = a.accum_indices @ b.accum_indices;
    stall = a.stall +. b.stall;
    icache = a.icache +. b.icache;
    macs = a.macs +. b.macs
  }

(* Issue cost of a scalar expression.  Index arithmetic is discounted: real
   backends strength-reduce address computations out of inner loops.  Each
   node has its own charge, so the recursion is written out. *)
let rec expr_cost (spec : Spec.cpu) ~index e =
  let discount = if index then 0.2 else 1.0 in
  match e with
  | Texpr.Imm _ | Texpr.Var _ -> 0.0
  | Texpr.Load (_, ix) ->
    (discount /. spec.Spec.load_ports) +. expr_cost spec ~index:true ix
  | Texpr.Binop (_, a, b) | Texpr.Cmp (_, a, b) | Texpr.And (a, b) | Texpr.Or (a, b) ->
    (discount /. spec.Spec.issue_width)
    +. expr_cost spec ~index a +. expr_cost spec ~index b
  | Texpr.Not a -> (discount /. spec.Spec.issue_width) +. expr_cost spec ~index a
  | Texpr.Cast (_, a) -> (discount *. spec.Spec.cast_cost) +. expr_cost spec ~index a
  | Texpr.Select (c, a, b) ->
    (discount /. spec.Spec.issue_width)
    +. expr_cost spec ~index c +. expr_cost spec ~index a +. expr_cost spec ~index b

let rec expr_nodes e = Texpr.fold_children (fun n c -> n + expr_nodes c) 1 e

let scalar_accum_latency dtype = if Unit_dtype.Dtype.is_float dtype then 4.0 else 1.0

(* Cycles to fill one register operand from a tile: one load per maximal
   contiguous run, broadcast lanes are free.  The dense run is the largest
   prefix of the stride-sorted axes where each stride equals the product of
   the previous extents (e.g. the NCHW[x]c weight tile with strides
   (ok=4, ci=1) is one dense 64-byte run). *)
let tile_load_cost (spec : Spec.cpu) intrin (tile : Stmt.tile) =
  let extent_of name =
    match Unit_isa.Intrin.axis_by_name intrin name with
    | Some a -> a.Unit_dsl.Axis.extent
    | None -> 1
  in
  let elem_bytes = Unit_dtype.Dtype.bytes tile.Stmt.tile_buf.Buffer.dtype in
  let elements =
    List.fold_left (fun acc (name, _) -> acc * extent_of name) 1 tile.Stmt.tile_strides
  in
  let sorted =
    List.sort
      (fun (_, s1) (_, s2) -> compare (abs s1) (abs s2))
      tile.Stmt.tile_strides
  in
  let run =
    List.fold_left
      (fun run (name, stride) -> if abs stride = run then run * extent_of name else run)
      1 sorted
  in
  let loads_per_run = Float.of_int ((run * elem_bytes) + 63) /. 64.0 in
  Float.of_int (elements / run) *. Float.max 1.0 loads_per_run /. spec.Spec.load_ports

let var_independent index var = Linear.is_independent_of index var

let rec analyze (spec : Spec.cpu) stmt =
  match stmt with
  | Stmt.Nop -> zero_comp
  | Stmt.Seq stmts -> List.fold_left (fun acc s -> combine acc (analyze spec s)) zero_comp stmts
  | Stmt.Let (_, e, body) ->
    let c = analyze spec body in
    { c with
      issue = c.issue +. expr_cost spec ~index:false e;
      instr_bytes = c.instr_bytes +. (4.0 *. Float.of_int (expr_nodes e))
    }
  | Stmt.Alloc (_, body) -> analyze spec body
  | Stmt.If { cond; then_; else_; _ } ->
    (* "likely" guards: the body is charged in full — padded iterations do
       wasted work, which is exactly the residue penalty *)
    let c = analyze spec then_ in
    let c =
      match else_ with Some e -> combine c (analyze spec e) | None -> c
    in
    { c with
      issue = c.issue +. spec.Spec.branch_cost +. expr_cost spec ~index:true cond;
      instr_bytes = c.instr_bytes +. (4.0 *. Float.of_int (expr_nodes cond))
    }
  | Stmt.Store (buf, index, value) ->
    let store_cost = 1.0 /. spec.Spec.load_ports in
    let base_cost =
      expr_cost spec ~index:false value +. expr_cost spec ~index:true index +. store_cost
    in
    let bytes = 4.0 *. Float.of_int (expr_nodes value + expr_nodes index + 1) in
    (match value with
     | Texpr.Binop (Texpr.Add, Texpr.Load (b, ix), _)
       when Buffer.equal b buf && Texpr.equal_structural ix index ->
       { zero_comp with
         issue = base_cost;
         instr_bytes = bytes;
         accum_ops = 1.0;
         chains = 1.0;
         lat = scalar_accum_latency buf.Buffer.dtype;
         accum_indices = [ index ];
         macs = 1.0
       }
     | _ ->
       { zero_comp with issue = base_cost; instr_bytes = bytes })
  | Stmt.Intrin_call { intrin; output; inputs } ->
    let intrin_def =
      match Unit_isa.Registry.find intrin with
      | Some i -> i
      | None -> invalid_arg ("Cpu_model: unregistered intrinsic " ^ intrin)
    in
    let cost = intrin_def.Unit_isa.Intrin.cost in
    (* the accumulator operand aliases the output register; loading it is
       free (register-resident across the reduction) *)
    let input_cost =
      List.fold_left
        (fun acc (_, tile) ->
          if
            Buffer.equal tile.Stmt.tile_buf output.Stmt.tile_buf
            && Texpr.equal_structural tile.Stmt.tile_base output.Stmt.tile_base
          then acc
          else acc +. tile_load_cost spec intrin_def tile)
        0.0 inputs
    in
    { zero_comp with
      issue = (1.0 /. cost.Unit_isa.Intrin.throughput) +. input_cost;
      instr_bytes = 8.0 +. (8.0 *. Float.of_int (List.length inputs));
      accum_ops = 1.0;
      chains = 1.0;
      lat = Float.of_int cost.Unit_isa.Intrin.latency;
      accum_indices = [ output.Stmt.tile_base ];
      macs = Float.of_int cost.Unit_isa.Intrin.macs
    }
  | Stmt.For { var; extent; kind; body } ->
    let c = analyze spec body in
    let n = Float.of_int extent in
    let invariant =
      c.accum_indices <> []
      && List.for_all (fun ix -> var_independent ix var) c.accum_indices
    in
    (match kind with
     | Stmt.Unrolled | Stmt.Vectorized ->
       let instr_bytes = c.instr_bytes *. n in
       let overflow = instr_bytes > Float.of_int spec.Spec.icache_bytes in
       let issue = c.issue *. n in
       let issue = if overflow then issue *. spec.Spec.icache_penalty else issue in
       (* the penalty inflates the whole body; the excess over the
          un-penalized issue is I-cache time, the rest keeps its split *)
       let icache =
         if overflow then
           n *. (c.icache +. (c.issue *. (spec.Spec.icache_penalty -. 1.0)))
         else c.icache *. n
       in
       let c =
         { c with issue; instr_bytes; icache; stall = c.stall *. n;
           macs = c.macs *. n }
       in
       if invariant then
         (* unrolling a loop that does not advance the accumulators just
            repeats dependent work *)
         { c with accum_ops = c.accum_ops *. n }
       else
         { c with
           accum_ops = c.accum_ops *. n;
           chains = Float.max c.chains (c.chains *. n)
         }
     | Stmt.Serial | Stmt.Parallel | Stmt.Gpu_block _ | Stmt.Gpu_thread _
     | Stmt.Tensorized _ ->
       if invariant && c.accum_ops > 0.0 then begin
         (* reduction-carried: latency-bound per iteration; time beyond the
            body's own issue is a RAW-hazard stall *)
         let dep_bound = c.lat *. c.accum_ops /. Float.max 1.0 c.chains in
         let per_iter = Float.max c.issue dep_bound +. spec.Spec.loop_overhead in
         { c with
           issue = n *. per_iter;
           accum_ops = 0.0;
           stall = n *. (c.stall +. Float.max 0.0 (dep_bound -. c.issue));
           icache = c.icache *. n;
           macs = c.macs *. n
         }
       end
       else
         { c with
           issue = n *. (c.issue +. spec.Spec.loop_overhead);
           accum_ops = c.accum_ops *. n;
           chains = (if c.accum_ops > 0.0 then c.chains *. n else c.chains);
           stall = c.stall *. n;
           icache = c.icache *. n;
           macs = c.macs *. n
         })

(* ---------- memory analysis (pass B) ---------- *)

type access = {
  buf : Buffer.t;
  index : Texpr.t;
  span : int;  (** elements touched per execution beyond the base (tiles) *)
  inner : (Var.t * int) list;  (** loops traversed so far, inside-out *)
}

let accesses_of_expr e =
  List.map (fun (buf, index) -> { buf; index; span = 1; inner = [] }) (Texpr.loads_of e)

let tile_span intrin (tile : Stmt.tile) =
  let extent_of name =
    match Unit_isa.Intrin.axis_by_name intrin name with
    | Some a -> a.Unit_dsl.Axis.extent
    | None -> 1
  in
  List.fold_left (fun acc (name, _) -> acc * extent_of name) 1 tile.Stmt.tile_strides

(* The accesses of a store or an intrinsic call; [traffic] collects the
   rest. *)
let leaf_accesses stmt =
  match stmt with
  | Stmt.Store (buf, index, value) ->
    ({ buf; index; span = 1; inner = [] } :: accesses_of_expr value)
    @ accesses_of_expr index
  | Stmt.Intrin_call { intrin; output; inputs } ->
    (match Unit_isa.Registry.find intrin with
     | None -> []
     | Some intrin_def ->
       let tile_access tile =
         { buf = tile.Stmt.tile_buf;
           index = tile.Stmt.tile_base;
           span = tile_span intrin_def tile;
           inner = []
         }
       in
       tile_access output :: List.map (fun (_, t) -> tile_access t) inputs)
  | _ -> []

(* Distinct bytes an access touches across its inner loops. *)
let access_footprint a =
  (* one walk of the index, not one per loop: [traffic] calls this for
     every access at every loop level of every tuning candidate *)
  let vars = Texpr.vars_of a.index in
  let dependent_product =
    List.fold_left
      (fun acc (v, e) -> if List.exists (Var.equal v) vars then acc * e else acc)
      1 a.inner
  in
  let env v =
    match List.find_opt (fun (w, _) -> Var.equal v w) a.inner with
    | Some (_, e) -> Some (0, e - 1)
    | None -> Some (0, 0)
  in
  let range =
    match Linear.bounds ~env a.index with
    | Some (lo, hi) -> (hi - lo + 1 + a.span - 1)
    | None -> max_int
  in
  let elems = Stdlib.min (dependent_product * a.span) range in
  let elems = Stdlib.min elems a.buf.Buffer.size in
  Float.of_int elems *. Float.of_int (Unit_dtype.Dtype.bytes a.buf.Buffer.dtype)

let footprint_of_accesses accesses =
  (* deduplicate structurally identical accesses (e.g. the RMW pair) *)
  let deduped =
    List.fold_left
      (fun acc a ->
        if
          List.exists
            (fun b ->
              Buffer.equal a.buf b.buf
              && Texpr.equal_structural a.index b.index
              && a.span = b.span)
            acc
        then acc
        else a :: acc)
      [] accesses
  in
  List.fold_left (fun total a -> total +. access_footprint a) 0.0 deduped

(* A statement's cache levels: each loop with its footprint, forced at
   most once, and what its body streams when the footprint does not fit. *)
type level =
  | Fits of float Lazy.t
  | Loop of int * float Lazy.t * level
  | Sum of level list

(* [stmt]'s accesses and levels, in one bottom-up pass. *)
let rec levels stmt =
  match stmt with
  | Stmt.Nop -> ([], Sum [])
  | Stmt.Seq stmts ->
    let parts = List.map levels stmts in
    (List.concat_map fst parts, Sum (List.map snd parts))
  | Stmt.Let (_, e, body) ->
    let accesses, l = levels body in
    (accesses_of_expr e @ accesses, l)
  | Stmt.Alloc (_, body) -> levels body
  | Stmt.If { cond; then_; else_; _ } ->
    let a_then, l_then = levels then_ in
    let a_else, l_else = match else_ with Some e -> levels e | None -> ([], Sum []) in
    (accesses_of_expr cond @ a_then @ a_else, Sum [ l_then; l_else ])
  | Stmt.Store _ | Stmt.Intrin_call _ ->
    let accesses = leaf_accesses stmt in
    (accesses, Fits (lazy (footprint_of_accesses accesses)))
  | Stmt.For { var; extent; body; _ } ->
    let accesses, l = levels body in
    let accesses = List.map (fun a -> { a with inner = (var, extent) :: a.inner }) accesses in
    (accesses, Loop (extent, lazy (footprint_of_accesses accesses), l))

(* Traffic past a cache of [capacity] bytes: once a nest's footprint
   fits, the data is loaded once; otherwise each iteration re-streams. *)
let rec traffic capacity = function
  | Fits fp -> Lazy.force fp
  | Sum ls -> List.fold_left (fun acc l -> acc +. traffic capacity l) 0.0 ls
  | Loop (extent, fp, body) ->
    let fp = Lazy.force fp in
    if fp <= 0.8 *. Float.of_int capacity then fp
    else Float.of_int extent *. traffic capacity body

(* ---------- parallel structure ---------- *)

let rec parallel_grains stmt =
  match stmt with
  | Stmt.For { extent; kind = Stmt.Parallel; body; _ } -> extent * parallel_grains body
  | Stmt.For { body; _ } | Stmt.Let (_, _, body) | Stmt.Alloc (_, body) ->
    parallel_grains body
  | Stmt.Seq stmts ->
    List.fold_left (fun acc s -> Stdlib.max acc (parallel_grains s)) 1 stmts
  | Stmt.If { then_; _ } -> parallel_grains then_
  | Stmt.Nop | Stmt.Store _ | Stmt.Intrin_call _ -> 1

(* ---------- combination ---------- *)

let per_chunk_overhead = 30.0

let estimate_stmt_with_report spec ?threads stmt =
  let threads = match threads with Some t -> t | None -> spec.Spec.cores in
  let comp = analyze spec stmt in
  (* apply any still-pending dependency bound (no enclosing loop did) *)
  let compute, stall_total =
    if comp.accum_ops > 0.0 then begin
      let dep_bound = comp.lat *. comp.accum_ops /. Float.max 1.0 comp.chains in
      ( Float.max comp.issue dep_bound,
        comp.stall +. Float.max 0.0 (dep_bound -. comp.issue) )
    end
    else (comp.issue, comp.stall)
  in
  let grains = parallel_grains stmt in
  let chunks = (grains + threads - 1) / threads in
  let threads_used = Float.of_int grains /. Float.of_int chunks in
  let threads_used = Float.max 1.0 threads_used in
  (* both capacities read one set of levels, so each loop's footprint
     is computed once *)
  let levels = snd (levels stmt) in
  let l2_traffic = traffic spec.Spec.l1_bytes levels in
  let dram_traffic = traffic spec.Spec.llc_bytes levels in
  let fork_join_cycles =
    (if grains > 1 then spec.Spec.fork_join_cost else 0.0)
    +. (per_chunk_overhead *. Float.of_int grains /. threads_used)
  in
  let compute_cycles = (compute /. threads_used) +. fork_join_cycles in
  let l2_cycles = l2_traffic /. (spec.Spec.l2_bw *. threads_used) in
  let dram_cycles = dram_traffic /. spec.Spec.dram_bw in
  let cycles = Float.max compute_cycles (Float.max l2_cycles dram_cycles) in
  let est =
    { est_cycles = cycles;
      est_seconds = Spec.cycles_to_seconds ~freq_ghz:spec.Spec.freq_ghz cycles;
      est_compute_cycles = compute;
      est_l2_cycles = l2_cycles;
      est_dram_cycles = dram_cycles;
      est_parallel_grains = grains;
      est_threads_used = threads_used
    }
  in
  (* Attribution: split the compute stream into pure issue, stalls and
     I-cache penalty (all scaled by thread utilization, like [compute]),
     charge fork/join + chunk scheduling separately, and account the
     bandwidth excess over compute as memory-bound time.  The components
     then sum exactly to [cycles]. *)
  let stall_c = stall_total /. threads_used in
  let icache_c = comp.icache /. threads_used in
  let pure_c = (compute /. threads_used) -. stall_c -. icache_c in
  let memory_c = Float.max 0.0 (Float.max l2_cycles dram_cycles -. compute_cycles) in
  let intensity = comp.macs /. Float.max 1.0 dram_traffic in
  let report =
    Cost_report.make ~compute:pure_c ~stall:stall_c ~icache:icache_c
      ~fork_join:fork_join_cycles ~memory:memory_c ~intensity
      ~ridge:(Spec.cpu_ridge spec)
  in
  (est, report)

let estimate_with_report spec ?threads (func : Lower.func) =
  estimate_stmt_with_report spec ?threads func.Lower.fn_body

let estimate spec ?threads (func : Lower.func) =
  fst (estimate_with_report spec ?threads func)
