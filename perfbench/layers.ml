(* Self-time arithmetic over a Telemetry span forest, and the table that
   assigns the library's span names to the benchmark's layers.

   A span's self time is its duration minus the part of its interval that
   its children cover.  Children are measured as a union of intervals, not
   a sum: the fleet pool absorbs the spans of two worker domains under one
   coordinator span, so sibling intervals overlap and a sum would exceed
   the parent's duration. *)

(* Length of the union of half-open [lo, hi) intervals. *)
let covered_ns intervals =
  let sorted = List.sort compare (List.filter (fun (lo, hi) -> hi > lo) intervals) in
  let rec go acc (clo, chi) = function
    | [] -> acc + (chi - clo)
    | (lo, hi) :: rest ->
      if lo <= chi then go acc (clo, max chi hi) rest else go (acc + (chi - clo)) (lo, hi) rest
  in
  match sorted with [] -> 0 | first :: rest -> go 0 first rest

let duration_ns (sp : Telemetry.span) = sp.Telemetry.sp_end_ns - sp.Telemetry.sp_start_ns

let self_ns (sp : Telemetry.span) =
  let clip (c : Telemetry.span) =
    ( max sp.Telemetry.sp_start_ns c.Telemetry.sp_start_ns,
      min sp.Telemetry.sp_end_ns c.Telemetry.sp_end_ns )
  in
  duration_ns sp - covered_ns (List.map clip sp.Telemetry.sp_children)

type totals = { count : int; total_ns : int; self_ns : int }

(* Per span name: occurrences, summed duration and summed self time, in
   first-seen depth-first order. *)
let by_name forest =
  let tbl = Hashtbl.create 32 and order = ref [] in
  let rec visit (sp : Telemetry.span) =
    let name = sp.Telemetry.sp_name in
    let t =
      match Hashtbl.find_opt tbl name with
      | Some t -> t
      | None ->
        order := name :: !order;
        { count = 0; total_ns = 0; self_ns = 0 }
    in
    Hashtbl.replace tbl name
      {
        count = t.count + 1;
        total_ns = t.total_ns + duration_ns sp;
        self_ns = t.self_ns + self_ns sp;
      };
    List.iter visit sp.Telemetry.sp_children
  in
  List.iter visit forest;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

(* The layer each library span measures.  Spans with no layer are drivers
   (phase wrappers, campaign loops, the pool) whose self time is
   orchestration.  [fleet.item], [campaign.kernel] and [guard.run] host
   layers that have no span of their own; the benchmark splits their self
   time by a replay. *)
let layer_of_span = function
  | "vega.profile" -> Some "profile"
  | "vega.fresh_sta" | "vega.aged_sta" -> Some "sta"
  | "vega.spbound" -> Some "spbound"
  | "formal.bound" | "formal.check_cover" -> Some "formal"
  | "sat.solve" -> Some "sat"
  | "lift.pair" | "lift.variant" -> Some "lift"
  | "repair.run" | "repair.pair" | "repair.differential" -> Some "repair"
  | "repair.cec" -> Some "cec"
  | "fleet.item" -> Some "fleet.item"
  | "campaign.kernel" -> Some "machine"
  | "guard.run" -> Some "guard"
  | _ -> None

(* Self time per layer, summed over the forest. *)
let layer_self_ns forest =
  List.fold_left
    (fun acc (name, t) ->
      match layer_of_span name with
      | Some l ->
        let prev = Option.value ~default:0 (List.assoc_opt l acc) in
        (l, prev + t.self_ns) :: List.remove_assoc l acc
      | None -> acc)
    [] (by_name forest)

(* Pass time that no layer covers: self time of driver spans plus the part
   of the pass outside every root span. *)
let unattributed_ns ~pass_ns forest =
  let driver_self =
    List.fold_left
      (fun acc (name, t) -> if layer_of_span name = None then acc + t.self_ns else acc)
      0 (by_name forest)
  in
  let roots =
    covered_ns
      (List.map
         (fun (sp : Telemetry.span) -> (sp.Telemetry.sp_start_ns, sp.Telemetry.sp_end_ns))
         forest)
  in
  driver_self + max 0 (pass_ns - roots)
