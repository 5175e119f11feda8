(* The reference STA implementation the compiled core in [Sta] replaced,
   kept verbatim as the oracle for the differential tests in [test_sta]:
   a closure call to [cell_delay] on every visited edge and one
   [Hashtbl]-memoised recursion over [Netlist.readers] per endpoint and
   check.  Slow, but simple enough to trust. *)

open Sta

(* Maximum and minimum data arrival time at every net, relative to the
   launching clock edge at t = 0 (clock arrivals shift launch times per
   domain). *)
let propagate_arrivals ~constrain_inputs nl timing =
  let n = Netlist.num_nets nl in
  let at_max = Array.make (max n 1) neg_infinity in
  let at_min = Array.make (max n 1) infinity in
  let cells = Netlist.cells nl in
  for net = 0 to n - 1 do
    match Netlist.driver nl net with
    | Netlist.Driven_by_input _ ->
      if constrain_inputs then begin
        at_max.(net) <- timing.input_arrival_ps;
        at_min.(net) <- timing.input_arrival_ps
      end
    | Netlist.Driven_by_cell id when id >= 0 ->
      let c = cells.(id) in
      if Cell.Kind.is_sequential c.kind then begin
        let arr = timing.clock_arrival_ps c.clock_domain in
        at_max.(net) <- arr +. timing.dff_timing.Cell.clk_to_q_max_ps;
        at_min.(net) <- arr +. timing.dff_timing.Cell.clk_to_q_min_ps
      end
    | Netlist.Driven_by_cell _ ->
      (* undriven net (legal when unread, e.g. after Builder rewiring):
         launches no timing path *)
      ()
  done;
  Array.iter
    (fun id ->
      let c = cells.(id) in
      if Array.length c.inputs > 0 then begin
        let d = timing.cell_delay c in
        let mx = Array.fold_left (fun acc i -> Float.max acc at_max.(i)) neg_infinity c.inputs in
        let mn = Array.fold_left (fun acc i -> Float.min acc at_min.(i)) infinity c.inputs in
        at_max.(c.output) <- mx +. d.Cell.tpd_max_ps;
        at_min.(c.output) <- mn +. d.Cell.tpd_min_ps
      end
      (* Tie cells never transition: like unconstrained inputs, they launch
         no timing path (at_max stays -inf, at_min +inf). *))
    (Netlist.topo_order nl);
  (at_max, at_min)

exception Cap_reached

let analyze ?(constrain_inputs = false) ?(max_violating_paths = 10_000) ~timing
    ~clock_period_ps nl =
  let cells = Netlist.cells nl in
  let at_max, at_min = propagate_arrivals ~constrain_inputs nl timing in
  let dff = timing.dff_timing in
  let truncated = ref false in
  let endpoint_slacks =
    List.map
      (fun id ->
        let c = cells.(id) in
        let d_net = c.inputs.(0) in
        let cap_arr = timing.clock_arrival_ps c.clock_domain in
        let setup_slack_ps =
          clock_period_ps +. cap_arr -. dff.Cell.setup_ps -. at_max.(d_net)
        in
        let hold_slack_ps = at_min.(d_net) -. (cap_arr +. dff.Cell.hold_ps) in
        { ep = At_dff id; setup_slack_ps; hold_slack_ps })
      (Netlist.dffs nl)
  in
  (* Backward DFS recovering all violating paths to one endpoint. *)
  let enumerate chk (ep_id : int) acc =
    let c = cells.(ep_id) in
    let cap_arr = timing.clock_arrival_ps c.clock_domain in
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
        let src = cells.(id) in
        if Cell.Kind.is_sequential src.kind then
          let arr = timing.clock_arrival_ps src.clock_domain in
          Some
            (match chk with
            | Setup -> arr +. dff.Cell.clk_to_q_max_ps
            | Hold -> arr +. dff.Cell.clk_to_q_min_ps)
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
          (match Netlist.driver nl net with
          | Netlist.Driven_by_input _ -> ()
          | Netlist.Driven_by_cell id ->
            let g = cells.(id) in
            let d = timing.cell_delay g in
            let step =
              match chk with Setup -> d.Cell.tpd_max_ps | Hold -> d.Cell.tpd_min_ps
            in
            Array.iter (fun i -> visit i (suffix +. step) (id :: through)) g.inputs)
      end
    in
    (try visit c.inputs.(0) 0.0 [] with Cap_reached -> ());
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
  {
    clock_period_ps;
    endpoint_slacks;
    setup_violations;
    hold_violations;
    wns_setup_ps = wns (fun e -> e.setup_slack_ps);
    wns_hold_ps = wns (fun e -> e.hold_slack_ps);
    truncated = !truncated;
  }

(* Exact per-(startpoint, endpoint) worst slacks: for each endpoint, one
   backward DP over its fan-in cone computes the max (resp. min) path delay
   from every net to the endpoint's D pin, from which each launching
   register's worst arrival follows directly.  Unlike path enumeration this
   is immune to path-count explosion. *)
let endpoint_pairs ?(constrain_inputs = false) ?(skip = fun _ _ _ -> false) ~timing
    ~clock_period_ps nl =
  let cells = Netlist.cells nl in
  let dff = timing.dff_timing in
  let results = ref [] in
  let for_check chk =
    List.iter
      (fun ep_id ->
        let ec = cells.(ep_id) in
        let d_net = ec.inputs.(0) in
        let cap_arr = timing.clock_arrival_ps ec.clock_domain in
        let required =
          match chk with
          | Setup -> clock_period_ps +. cap_arr -. dff.Cell.setup_ps
          | Hold -> cap_arr +. dff.Cell.hold_ps
        in
        (* delay from each net to d_net through combinational logic *)
        let memo = Hashtbl.create 64 in
        let worse a b = match chk with Setup -> Float.max a b | Hold -> Float.min a b in
        let neutral = match chk with Setup -> neg_infinity | Hold -> infinity in
        let rec delay_from net =
          match Hashtbl.find_opt memo net with
          | Some d -> d
          | None ->
            let direct = if net = d_net then 0.0 else neutral in
            let through =
              List.fold_left
                (fun acc rid ->
                  let g = cells.(rid) in
                  if Cell.Kind.is_sequential g.kind then acc
                  else begin
                    let d = timing.cell_delay g in
                    let step =
                      match chk with Setup -> d.Cell.tpd_max_ps | Hold -> d.Cell.tpd_min_ps
                    in
                    let tail = delay_from g.output in
                    if Float.is_finite tail then worse acc (step +. tail) else acc
                  end)
                neutral (Netlist.readers nl net)
            in
            let d = worse direct through in
            Hashtbl.replace memo net d;
            d
        in
        let consider start launch net =
          (* Skipped pairs do no DP work at all: when every pair of an
             endpoint is skipped, its fan-in cone is never traversed. *)
          if not (skip start (At_dff ep_id) chk) then begin
            let tail = delay_from net in
            if Float.is_finite tail then begin
              let arrival = launch +. tail in
              let slack =
                match chk with Setup -> required -. arrival | Hold -> arrival -. required
              in
              results := (start, At_dff ep_id, chk, slack) :: !results
            end
          end
        in
        (* launching registers *)
        List.iter
          (fun sid ->
            let sc = cells.(sid) in
            let arr = timing.clock_arrival_ps sc.clock_domain in
            let launch =
              match chk with
              | Setup -> arr +. dff.Cell.clk_to_q_max_ps
              | Hold -> arr +. dff.Cell.clk_to_q_min_ps
            in
            consider (From_dff sid) launch sc.output)
          (Netlist.dffs nl);
        (* primary inputs, when constrained *)
        if constrain_inputs then
          List.iter
            (fun (p : Netlist.port) ->
              Array.iteri
                (fun bit net -> consider (From_input (p.port_name, bit)) timing.input_arrival_ps net)
                p.port_nets)
            (Netlist.inputs nl))
      (Netlist.dffs nl)
  in
  for_check Setup;
  for_check Hold;
  List.rev !results

let violating_pairs ?constrain_inputs ?skip ~timing ~clock_period_ps nl =
  endpoint_pairs ?constrain_inputs ?skip ~timing ~clock_period_ps nl
  |> List.filter (fun (_, _, _, slack) -> slack < 0.0)
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b)

(* Worst path of one pair: rerun the per-endpoint DP of [endpoint_pairs]
   for the one endpoint, then walk forward from the launching net choosing
   at each step a reader that achieves the memoized extremal tail — the
   walk reconstructs an argmax (argmin for hold) path without enumerating
   the cone. *)
let pair_path ?(constrain_inputs = false) ~timing ~clock_period_ps nl start
    (At_dff ep_id) chk =
  let cells = Netlist.cells nl in
  let dff = timing.dff_timing in
  let ec = cells.(ep_id) in
  let d_net = ec.inputs.(0) in
  let cap_arr = timing.clock_arrival_ps ec.clock_domain in
  let required =
    match chk with
    | Setup -> clock_period_ps +. cap_arr -. dff.Cell.setup_ps
    | Hold -> cap_arr +. dff.Cell.hold_ps
  in
  let memo = Hashtbl.create 64 in
  let worse a b = match chk with Setup -> Float.max a b | Hold -> Float.min a b in
  let neutral = match chk with Setup -> neg_infinity | Hold -> infinity in
  let step_of g =
    let d = timing.cell_delay g in
    match chk with Setup -> d.Cell.tpd_max_ps | Hold -> d.Cell.tpd_min_ps
  in
  let rec delay_from net =
    match Hashtbl.find_opt memo net with
    | Some d -> d
    | None ->
      let direct = if net = d_net then 0.0 else neutral in
      let through =
        List.fold_left
          (fun acc rid ->
            let g = cells.(rid) in
            if Cell.Kind.is_sequential g.kind then acc
            else begin
              let tail = delay_from g.output in
              if Float.is_finite tail then worse acc (step_of g +. tail) else acc
            end)
          neutral (Netlist.readers nl net)
      in
      let d = worse direct through in
      Hashtbl.replace memo net d;
      d
  in
  let launch =
    match start with
    | From_dff sid ->
      let sc = cells.(sid) in
      let arr = timing.clock_arrival_ps sc.clock_domain in
      Some
        ( sc.output,
          match chk with
          | Setup -> arr +. dff.Cell.clk_to_q_max_ps
          | Hold -> arr +. dff.Cell.clk_to_q_min_ps )
    | From_input (p, b) ->
      if constrain_inputs then
        Some (Netlist.net_of_port_bit nl p b, timing.input_arrival_ps)
      else None
  in
  match launch with
  | None -> None
  | Some (net0, launch_ps) ->
    let tail = delay_from net0 in
    if not (Float.is_finite tail) then None
    else begin
      let pick net =
        let t = delay_from net in
        List.find_opt
          (fun rid ->
            let g = cells.(rid) in
            (not (Cell.Kind.is_sequential g.kind))
            && Float.is_finite (delay_from g.output)
            && Float.abs (step_of g +. delay_from g.output -. t)
               <= 1e-6 *. (1.0 +. Float.abs t))
          (Netlist.readers nl net)
      in
      let rec walk net acc =
        if net = d_net then List.rev acc
        else
          match pick net with
          | None -> List.rev acc
          | Some rid -> walk cells.(rid).output (rid :: acc)
      in
      let arrival = launch_ps +. tail in
      let slack_ps =
        match chk with Setup -> required -. arrival | Hold -> arrival -. required
      in
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
