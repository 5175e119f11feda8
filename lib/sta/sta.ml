type startpoint = From_dff of int | From_input of string * int
type endpoint = At_dff of int
type check = Setup | Hold

type path = {
  start : startpoint;
  finish : endpoint;
  through : int list;
  delay_ps : float;
  slack_ps : float;
  check : check;
}

type endpoint_slack = { ep : endpoint; setup_slack_ps : float; hold_slack_ps : float }

type report = {
  clock_period_ps : float;
  endpoint_slacks : endpoint_slack list;
  setup_violations : path list;
  hold_violations : path list;
  wns_setup_ps : float;
  wns_hold_ps : float;
  truncated : bool;
}

type timing_source = {
  cell_delay : Netlist.cell -> Cell.timing;
  dff_timing : Cell.dff_timing;
  clock_arrival_ps : int -> float;
  input_arrival_ps : float;
}

let fresh_timing ?(derate = 1.0) ?(clock_tree = Clock_tree.single_domain) lib =
  let cell_delay (c : Netlist.cell) =
    let t = Cell.Library.timing lib c.kind in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. derate }
  in
  let buf = Cell.Library.timing lib Cell.Kind.Buf in
  let buffer_delay ~sp:_ = buf.Cell.tpd_max_ps *. derate in
  {
    cell_delay;
    dff_timing = Cell.Library.dff lib;
    clock_arrival_ps = (fun dom -> Clock_tree.arrival_ps clock_tree ~buffer_delay dom);
    input_arrival_ps = 0.0;
  }

let aged_timing ?(derate = 1.0) ?(clock_tree = Clock_tree.single_domain) ?toggle_of_net
    ~sp_of_net ~years aglib =
  let celllib = Aging.Timing_library.cell_library aglib in
  let em_factor net =
    match toggle_of_net with
    | None -> 1.0
    | Some f ->
      Aging.em_delay_factor (Aging.Timing_library.config aglib) ~toggle_rate:(f net) ~years
  in
  let cell_delay (c : Netlist.cell) =
    let aged = Aging.Timing_library.aged_timing aglib c.kind ~sp:(sp_of_net c.output) ~years in
    { aged with Cell.tpd_max_ps = aged.Cell.tpd_max_ps *. derate *. em_factor c.output }
  in
  let buf_fresh = Cell.Library.timing celllib Cell.Kind.Buf in
  let buffer_delay ~sp =
    buf_fresh.Cell.tpd_max_ps *. derate *. Aging.Timing_library.factor aglib Cell.Kind.Buf ~sp ~years
  in
  {
    cell_delay;
    dff_timing = Cell.Library.dff celllib;
    clock_arrival_ps = (fun dom -> Clock_tree.arrival_ps clock_tree ~buffer_delay dom);
    input_arrival_ps = 0.0;
  }

(* ---------- the compiled core ----------

   [analyze], [endpoint_pairs] and [pair_path] all run on one compiled
   view of the netlist and its timing source, rebuilt by every call (the
   netlist and the timing closures are the caller's, so no result is kept
   from one call to the next):

   - [drv]: the combinational driver of each net, or -1 for nets launched
     by a DFF or a primary input, driven by a tie cell, or undriven;
   - [rd_off]/[rd]: the CSR array of each net's combinational readers, in
     [Netlist.readers] order (built by the pair queries only);
   - [tpd_max]/[tpd_min]: per-cell delays, filled by one [cell_delay] call
     per cell the query touches, so the aging-library interpolation (and
     any lookup behind [sp_of_net]) runs once per cell rather than once
     per visited edge;
   - [clk]: the clock arrival of each DFF, one [clock_arrival_ps] call per
     DFF;
   - [stamp]/[tail]/[order]/[stack_net]/[stack_pin]: the per-endpoint DP.

   The arrays live in a per-domain workspace that only ever grows.
   Allocated per call, these net- and cell-sized arrays go straight to the
   major heap, and the few hundred FPU16 queries of one repair run raised
   its peak heap by a third.  Reuse carries nothing from one query to the
   next: each query resets or rewrites every entry it reads, and a cone
   stamp cannot go stale because DP generations keep counting up. *)

let sweeps_counter = Telemetry.Counter.make "sta.sweeps"
let cone_nets_counter = Telemetry.Counter.make "sta.cone_nets"
let delay_fills_counter = Telemetry.Counter.make "sta.delay_fills"

type workspace = {
  mutable busy : bool;
  mutable gen : int;
  mutable drv : int array;
  mutable rd_off : int array;
  mutable rd : int array;
  mutable stamp : int array;
  mutable tail : float array;
  mutable order : int array;
  mutable stack_net : int array;
  mutable stack_pin : int array;
  mutable tpd_max : float array;
  mutable tpd_min : float array;
  mutable filled : Bytes.t;  (** per cell: ['\001'] once its delays are in *)
  mutable clk : float array;
}

let empty_workspace () =
  {
    busy = false;
    gen = 0;
    drv = [||];
    rd_off = [||];
    rd = [||];
    stamp = [||];
    tail = [||];
    order = [||];
    stack_net = [||];
    stack_pin = [||];
    tpd_max = [||];
    tpd_min = [||];
    filled = Bytes.empty;
    clk = [||];
  }

let workspace_key = Domain.DLS.new_key empty_workspace

(* One query: the caller's netlist and timing over the borrowed arrays. *)
type core = {
  timing : timing_source;
  nl : Netlist.t;
  cells : Netlist.cell array;
  ws : workspace;
  mutable fills : int;
  mutable cone_nets : int;
}

(* Run [f] on a core for [nl], borrowing the domain's workspace (or a
   private one, should a timing or [skip] callback re-enter the
   analysis). *)
let with_core ~timing nl f =
  let shared = Domain.DLS.get workspace_key in
  let ws = if shared.busy then empty_workspace () else shared in
  let cells = Netlist.cells nl in
  let n = max (Netlist.num_nets nl) 1 and nc = max (Array.length cells) 1 in
  if Array.length ws.drv < n then begin
    ws.drv <- Array.make n (-1);
    ws.rd_off <- Array.make (n + 1) 0;
    ws.stamp <- Array.make n 0;
    ws.tail <- Array.make n 0.0;
    ws.order <- Array.make n 0;
    ws.stack_net <- Array.make n 0;
    ws.stack_pin <- Array.make n 0
  end;
  if Array.length ws.tpd_max < nc then begin
    ws.tpd_max <- Array.make nc 0.0;
    ws.tpd_min <- Array.make nc 0.0;
    ws.filled <- Bytes.make nc '\000';
    ws.clk <- Array.make nc 0.0
  end;
  Array.fill ws.drv 0 n (-1);
  Bytes.fill ws.filled 0 nc '\000';
  Array.iter
    (fun (c : Netlist.cell) ->
      if (not (Cell.Kind.is_sequential c.kind)) && Array.length c.inputs > 0 then
        ws.drv.(c.output) <- c.id)
    cells;
  ws.busy <- true;
  Fun.protect
    ~finally:(fun () -> ws.busy <- false)
    (fun () -> f { timing; nl; cells; ws; fills = 0; cone_nets = 0 })

let fill_delay k id =
  let ws = k.ws in
  if Bytes.unsafe_get ws.filled id = '\000' then begin
    let d = k.timing.cell_delay k.cells.(id) in
    ws.tpd_max.(id) <- d.Cell.tpd_max_ps;
    ws.tpd_min.(id) <- d.Cell.tpd_min_ps;
    Bytes.unsafe_set ws.filled id '\001';
    k.fills <- k.fills + 1
  end

(* Clock arrival of every DFF, indexed by cell id. *)
let clock_arrivals k dffs =
  let clk = k.ws.clk in
  List.iter (fun id -> clk.(id) <- k.timing.clock_arrival_ps k.cells.(id).Netlist.clock_domain) dffs;
  clk

(* The readers CSR for the pair queries. *)
let build_readers k =
  let ws = k.ws and n = Netlist.num_nets k.nl in
  let comb id = not (Cell.Kind.is_sequential k.cells.(id).Netlist.kind) in
  let rec count acc = function
    | [] -> acc
    | id :: rest -> count (if comb id then acc + 1 else acc) rest
  in
  let rd_off = ws.rd_off in
  for net = 0 to n - 1 do
    rd_off.(net + 1) <- count rd_off.(net) (Netlist.readers k.nl net)
  done;
  if Array.length ws.rd < rd_off.(n) then ws.rd <- Array.make rd_off.(n) 0;
  let rd = ws.rd in
  let rec place i = function
    | [] -> ()
    | id :: rest ->
      if comb id then begin
        rd.(i) <- id;
        place (i + 1) rest
      end
      else place i rest
  in
  for net = 0 to n - 1 do
    place rd_off.(net) (Netlist.readers k.nl net)
  done

(* The per-endpoint DP.  Marks the fan-in cone of [d_net] (filling the
   delays of its cells), then sets [tail.(net)] for every cone net to the
   max (setup) or min (hold) combinational delay from [net] to [d_net].
   A net is in the cone iff its stamp is the current generation; only
   then is its tail meaningful.

   It computes exactly what a memoised forward recursion over
   [Netlist.readers] computes: each net folds over its combinational
   readers in [Netlist.readers] order with the same [worse acc (step +.
   tail)], skipping readers whose tail is not finite — and a reader whose
   output lies outside the cone has the neutral, infinite tail, so
   skipping it without a look is the same fold.  [Float.max]/[Float.min]
   are exact and each sum has the same operands, so every tail is
   bit-identical.  Reverse post-order visits each net after all its
   readers' outputs. *)
let run_dp k ~setup d_net =
  let ws = k.ws and cells = k.cells in
  let stamp = ws.stamp and order = ws.order in
  let stack_net = ws.stack_net and stack_pin = ws.stack_pin in
  ws.gen <- ws.gen + 1;
  let gen = ws.gen in
  stamp.(d_net) <- gen;
  stack_net.(0) <- d_net;
  stack_pin.(0) <- 0;
  let sp = ref 1 and n = ref 0 in
  while !sp > 0 do
    let top = !sp - 1 in
    let net = stack_net.(top) and pin = stack_pin.(top) in
    let id = ws.drv.(net) in
    if id >= 0 && pin < Array.length cells.(id).Netlist.inputs then begin
      stack_pin.(top) <- pin + 1;
      let i = cells.(id).Netlist.inputs.(pin) in
      if stamp.(i) <> gen then begin
        stamp.(i) <- gen;
        stack_net.(!sp) <- i;
        stack_pin.(!sp) <- 0;
        incr sp
      end
    end
    else begin
      if id >= 0 then fill_delay k id;
      order.(!n) <- net;
      incr n;
      sp := top
    end
  done;
  k.cone_nets <- k.cone_nets + !n;
  let tail = ws.tail and rd = ws.rd and rd_off = ws.rd_off in
  let step = if setup then ws.tpd_max else ws.tpd_min in
  let neutral = if setup then neg_infinity else infinity in
  for j = !n - 1 downto 0 do
    let net = order.(j) in
    tail.(net) <- neutral;
    for r = rd_off.(net) to rd_off.(net + 1) - 1 do
      let id = rd.(r) in
      let out = cells.(id).Netlist.output in
      if stamp.(out) = gen then begin
        let t = tail.(out) in
        if Float.is_finite t then
          tail.(net) <-
            (if setup then Float.max tail.(net) (step.(id) +. t)
             else Float.min tail.(net) (step.(id) +. t))
      end
    done;
    let direct = if net = d_net then 0.0 else neutral in
    tail.(net) <- (if setup then Float.max direct tail.(net) else Float.min direct tail.(net))
  done

(* Tail of [net] after [run_dp]; neutral outside the cone. *)
let[@inline] tail_of k ~setup net =
  if k.ws.stamp.(net) = k.ws.gen then k.ws.tail.(net)
  else if setup then neg_infinity
  else infinity

let record_counters ~sweep k =
  if sweep then Telemetry.Counter.incr sweeps_counter;
  Telemetry.Counter.add cone_nets_counter k.cone_nets;
  Telemetry.Counter.add delay_fills_counter k.fills

(* Maximum and minimum data arrival time at every net, relative to the
   launching clock edge at t = 0 (clock arrivals shift launch times per
   domain).  Fills the delays of every combinational cell. *)
let propagate_arrivals ~constrain_inputs k clk =
  let timing = k.timing and cells = k.cells and nl = k.nl in
  let n = Netlist.num_nets nl in
  let at_max = Array.make (max n 1) neg_infinity in
  let at_min = Array.make (max n 1) infinity in
  for net = 0 to n - 1 do
    match Netlist.driver nl net with
    | Netlist.Driven_by_input _ ->
      if constrain_inputs then begin
        at_max.(net) <- timing.input_arrival_ps;
        at_min.(net) <- timing.input_arrival_ps
      end
    | Netlist.Driven_by_cell id when id >= 0 ->
      if Cell.Kind.is_sequential cells.(id).kind then begin
        at_max.(net) <- clk.(id) +. timing.dff_timing.Cell.clk_to_q_max_ps;
        at_min.(net) <- clk.(id) +. timing.dff_timing.Cell.clk_to_q_min_ps
      end
    | Netlist.Driven_by_cell _ ->
      (* undriven net (legal when unread, e.g. after Builder rewiring):
         launches no timing path *)
      ()
  done;
  Array.iter
    (fun id ->
      let c = cells.(id) in
      let out = c.output in
      (* Tie cells never transition: like unconstrained inputs, they launch
         no timing path (at_max stays -inf, at_min +inf).  Otherwise fold
         the inputs in pin order from those same neutral values. *)
      if Array.length c.inputs > 0 then begin
        fill_delay k id;
        Array.iter
          (fun i ->
            at_max.(out) <- Float.max at_max.(out) at_max.(i);
            at_min.(out) <- Float.min at_min.(out) at_min.(i))
          c.inputs;
        at_max.(out) <- at_max.(out) +. k.ws.tpd_max.(id);
        at_min.(out) <- at_min.(out) +. k.ws.tpd_min.(id)
      end)
    (Netlist.topo_order nl);
  (at_max, at_min)

exception Cap_reached

let analyze ?(constrain_inputs = false) ?(max_violating_paths = 10_000) ~timing
    ~clock_period_ps nl =
  with_core ~timing nl @@ fun k ->
  let cells = k.cells in
  let dffs = Netlist.dffs nl in
  let clk = clock_arrivals k dffs in
  let at_max, at_min = propagate_arrivals ~constrain_inputs k clk in
  let dff = timing.dff_timing in
  let truncated = ref false in
  let endpoint_slacks =
    List.map
      (fun id ->
        let d_net = cells.(id).inputs.(0) in
        let cap_arr = clk.(id) in
        let setup_slack_ps =
          clock_period_ps +. cap_arr -. dff.Cell.setup_ps -. at_max.(d_net)
        in
        let hold_slack_ps = at_min.(d_net) -. (cap_arr +. dff.Cell.hold_ps) in
        { ep = At_dff id; setup_slack_ps; hold_slack_ps })
      dffs
  in
  (* Backward DFS recovering all violating paths to one endpoint. *)
  let enumerate chk (ep_id : int) acc =
    let cap_arr = clk.(ep_id) in
    let results = ref acc in
    let count = ref (List.length acc) in
    let record p =
      if !count >= max_violating_paths then begin
        truncated := true;
        raise Cap_reached
      end;
      results := p :: !results;
      incr count
    in
    let source_launch net =
      match Netlist.driver nl net with
      | Netlist.Driven_by_input _ ->
        if constrain_inputs then Some timing.input_arrival_ps else None
      | Netlist.Driven_by_cell id ->
        if Cell.Kind.is_sequential cells.(id).kind then
          Some
            (match chk with
            | Setup -> clk.(id) +. dff.Cell.clk_to_q_max_ps
            | Hold -> clk.(id) +. dff.Cell.clk_to_q_min_ps)
        else None
    in
    let startpoint_of net =
      match Netlist.driver nl net with
      | Netlist.Driven_by_input (port, bit) -> From_input (port, bit)
      | Netlist.Driven_by_cell id -> From_dff id
    in
    let required =
      match chk with
      | Setup -> clock_period_ps +. cap_arr -. dff.Cell.setup_ps
      | Hold -> cap_arr +. dff.Cell.hold_ps
    in
    let violates arrival =
      match chk with Setup -> arrival > required | Hold -> arrival < required
    in
    let prune net suffix =
      match chk with
      | Setup -> at_max.(net) +. suffix <= required
      | Hold -> at_min.(net) +. suffix >= required
    in
    let rec visit net suffix through =
      if not (prune net suffix) then begin
        match source_launch net with
        | Some launch ->
          let arrival = launch +. suffix in
          if violates arrival then
            record
              {
                start = startpoint_of net;
                finish = At_dff ep_id;
                through;
                delay_ps = arrival;
                slack_ps =
                  (match chk with
                  | Setup -> required -. arrival
                  | Hold -> arrival -. required);
                check = chk;
              }
        | None ->
          let id = k.ws.drv.(net) in
          if id >= 0 then begin
            let step = match chk with Setup -> k.ws.tpd_max.(id) | Hold -> k.ws.tpd_min.(id) in
            Array.iter (fun i -> visit i (suffix +. step) (id :: through)) cells.(id).inputs
          end
      end
    in
    (try visit cells.(ep_id).inputs.(0) 0.0 [] with Cap_reached -> ());
    !results
  in
  let worst_first paths = List.sort (fun a b -> Float.compare a.slack_ps b.slack_ps) paths in
  let collect chk slack_of =
    List.fold_left
      (fun acc es ->
        if slack_of es < 0.0 then
          match es.ep with At_dff id -> enumerate chk id acc
        else acc)
      [] endpoint_slacks
    |> worst_first
  in
  let setup_violations = collect Setup (fun e -> e.setup_slack_ps) in
  let hold_violations = collect Hold (fun e -> e.hold_slack_ps) in
  let wns slack_of =
    List.fold_left (fun acc e -> Float.min acc (slack_of e)) 0.0 endpoint_slacks
  in
  record_counters ~sweep:true k;
  {
    clock_period_ps;
    endpoint_slacks;
    setup_violations;
    hold_violations;
    wns_setup_ps = wns (fun e -> e.setup_slack_ps);
    wns_hold_ps = wns (fun e -> e.hold_slack_ps);
    truncated = !truncated;
  }

(* Exact per-(startpoint, endpoint) worst slacks: for each endpoint and
   check, one DP over its fan-in cone gives the max (resp. min) path delay
   from every cone net to the endpoint's D pin, from which each launching
   register's worst arrival follows directly.  Unlike path enumeration
   this is immune to path-count explosion. *)
let endpoint_pairs ?(constrain_inputs = false) ?(skip = fun _ _ _ -> false) ~timing
    ~clock_period_ps nl =
  with_core ~timing nl @@ fun k ->
  build_readers k;
  let cells = k.cells and dff = timing.dff_timing in
  let dff_list = Netlist.dffs nl in
  let dffs = Array.of_list dff_list in
  let clk = clock_arrivals k dff_list in
  (* startpoints and their nets: launching registers, then primary inputs
     when constrained *)
  let inputs =
    if constrain_inputs then
      List.concat_map
        (fun (p : Netlist.port) ->
          List.mapi
            (fun bit net -> (From_input (p.port_name, bit), net))
            (Array.to_list p.port_nets))
        (Netlist.inputs nl)
    else []
  in
  let starts =
    Array.of_list (List.map (fun sid -> (From_dff sid, cells.(sid).output)) dff_list @ inputs)
  in
  let launch ~clk_to_q j =
    if j < Array.length dffs then clk.(dffs.(j)) +. clk_to_q else timing.input_arrival_ps
  in
  let launch_max = Array.init (Array.length starts) (launch ~clk_to_q:dff.Cell.clk_to_q_max_ps) in
  let launch_min = Array.init (Array.length starts) (launch ~clk_to_q:dff.Cell.clk_to_q_min_ps) in
  let results = ref [] in
  let for_check chk =
    let setup = chk = Setup in
    Array.iter
      (fun ep_id ->
        let d_net = cells.(ep_id).inputs.(0) in
        let cap_arr = clk.(ep_id) in
        let required =
          if setup then clock_period_ps +. cap_arr -. dff.Cell.setup_ps
          else cap_arr +. dff.Cell.hold_ps
        in
        let ep = At_dff ep_id in
        (* Skipped pairs do no DP work at all: the cone is built at the
           first pair not skipped, so an endpoint whose pairs are all
           skipped never builds it. *)
        let built = ref false in
        for j = 0 to Array.length starts - 1 do
          let start, net = starts.(j) in
          if not (skip start ep chk) then begin
            if not !built then begin
              run_dp k ~setup d_net;
              built := true
            end;
            let tail = tail_of k ~setup net in
            if Float.is_finite tail then begin
              let arrival = (if setup then launch_max.(j) else launch_min.(j)) +. tail in
              let slack = if setup then required -. arrival else arrival -. required in
              results := (start, ep, chk, slack) :: !results
            end
          end
        done)
      dffs
  in
  for_check Setup;
  for_check Hold;
  record_counters ~sweep:true k;
  List.rev !results

let violating_pairs ?constrain_inputs ?skip ~timing ~clock_period_ps nl =
  endpoint_pairs ?constrain_inputs ?skip ~timing ~clock_period_ps nl
  |> List.filter (fun (_, _, _, slack) -> slack < 0.0)
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b)

let unique_pairs paths =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let key = (p.start, p.finish) in
      match Hashtbl.find_opt tbl key with
      | Some best when best.slack_ps <= p.slack_ps -> ()
      | _ -> Hashtbl.replace tbl key p)
    paths;
  Hashtbl.fold (fun key p acc -> (key, p) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Float.compare a.slack_ps b.slack_ps)

(* Worst path of one pair: the endpoint's DP, then a forward walk from the
   launching net that takes at each step the first reader achieving the
   extremal tail — an argmax (argmin for hold) path, reconstructed without
   enumerating the cone. *)
let pair_path ?(constrain_inputs = false) ~timing ~clock_period_ps nl start
    (At_dff ep_id) chk =
  let cells = Netlist.cells nl in
  let dff = timing.dff_timing in
  let setup = chk = Setup in
  let launch =
    match start with
    | From_dff sid ->
      let sc = cells.(sid) in
      let arr = timing.clock_arrival_ps sc.clock_domain in
      Some
        ( sc.output,
          if setup then arr +. dff.Cell.clk_to_q_max_ps else arr +. dff.Cell.clk_to_q_min_ps )
    | From_input (p, b) ->
      if constrain_inputs then
        Some (Netlist.net_of_port_bit nl p b, timing.input_arrival_ps)
      else None
  in
  match launch with
  | None -> None
  | Some (net0, launch_ps) ->
    with_core ~timing nl @@ fun k ->
    build_readers k;
    let d_net = cells.(ep_id).inputs.(0) in
    run_dp k ~setup d_net;
    record_counters ~sweep:false k;
    let tail = tail_of k ~setup net0 in
    if not (Float.is_finite tail) then None
    else begin
      let step = if setup then k.ws.tpd_max else k.ws.tpd_min in
      let rec pick t r stop =
        if r >= stop then None
        else
          let id = k.ws.rd.(r) in
          let out_t = tail_of k ~setup cells.(id).output in
          if Float.is_finite out_t && Float.abs (step.(id) +. out_t -. t) <= 1e-6 *. (1.0 +. Float.abs t)
          then Some id
          else pick t (r + 1) stop
      in
      let rec walk net acc =
        if net = d_net then List.rev acc
        else
          match pick (tail_of k ~setup net) k.ws.rd_off.(net) k.ws.rd_off.(net + 1) with
          | None -> List.rev acc
          | Some id -> walk cells.(id).output (id :: acc)
      in
      let cap_arr = timing.clock_arrival_ps cells.(ep_id).clock_domain in
      let required =
        if setup then clock_period_ps +. cap_arr -. dff.Cell.setup_ps else cap_arr +. dff.Cell.hold_ps
      in
      let arrival = launch_ps +. tail in
      let slack_ps = if setup then required -. arrival else arrival -. required in
      Some
        {
          start;
          finish = At_dff ep_id;
          through = walk net0 [];
          delay_ps = arrival;
          slack_ps;
          check = chk;
        }
    end

let describe_startpoint nl = function
  | From_dff id -> (Netlist.cell nl id).name
  | From_input (port, bit) -> Printf.sprintf "%s[%d]" port bit

let describe_endpoint nl (At_dff id) = (Netlist.cell nl id).name

let describe_path nl p =
  let mid = List.map (fun id -> (Netlist.cell nl id).name) p.through in
  let chain =
    String.concat " -> " ((describe_startpoint nl p.start :: mid) @ [ describe_endpoint nl p.finish ])
  in
  Printf.sprintf "%s (%s, slack %.1f ps)" chain
    (match p.check with Setup -> "setup" | Hold -> "hold")
    p.slack_ps

let render_report nl r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Timing report (clock period %.1f ps)\n" r.clock_period_ps;
  add "  endpoints: %d   setup WNS: %.1f ps   hold WNS: %.1f ps%s\n"
    (List.length r.endpoint_slacks) r.wns_setup_ps r.wns_hold_ps
    (if r.truncated then "   [path enumeration truncated]" else "");
  let show title paths =
    add "  %s violations: %d\n" title (List.length paths);
    List.iteri
      (fun i p -> if i < 20 then add "    %s\n" (describe_path nl p))
      paths;
    if List.length paths > 20 then add "    ... (%d more)\n" (List.length paths - 20)
  in
  show "setup" r.setup_violations;
  show "hold" r.hold_violations;
  let worst =
    List.sort
      (fun a b -> Float.compare a.setup_slack_ps b.setup_slack_ps)
      r.endpoint_slacks
  in
  add "  tightest endpoints (setup slack):\n";
  List.iteri
    (fun i es ->
      if i < 8 then
        add "    %-12s setup %8.1f ps   hold %s\n" (describe_endpoint nl es.ep)
          es.setup_slack_ps
          (if Float.is_finite es.hold_slack_ps then Printf.sprintf "%8.1f ps" es.hold_slack_ps
           else "unconstrained"))
    worst;
  Buffer.contents buf
