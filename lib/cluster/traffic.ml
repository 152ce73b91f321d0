type ns = Kernsim.Time.ns

type arrival =
  | Poisson of { rate : float }
  | Diurnal of { mean_rate : float; amplitude : float; period : ns }
  | Burst of { base_rate : float; burst_rate : float; mean_on : ns; mean_off : ns }

let pi = 4.0 *. atan 1.0

(* inlined into the thinning step, so the rate is never boxed *)
let[@inline] diurnal_rate ~mean_rate ~amplitude ~period t =
  mean_rate *. (1.0 +. (amplitude *. sin (2.0 *. pi *. float_of_int t /. float_of_int period)))

let rate_at a t =
  match a with
  | Poisson { rate } -> rate
  | Diurnal { mean_rate; amplitude; period } -> diurnal_rate ~mean_rate ~amplitude ~period t
  | Burst { base_rate; burst_rate; mean_on; mean_off } ->
    let on = float_of_int mean_on and off = float_of_int mean_off in
    ((base_rate *. off) +. (burst_rate *. on)) /. (on +. off)

type tenant = {
  name : string;
  arrival : arrival;
  service : Stats.Dist.t;
  flow_len_mean : float;
  connections : int;
}

type request = { req_id : int; tenant : int; flow_key : int; arrived : ns; service : ns }

let standard_mix ?(connections = 256) ?(flow_len = 8.0) ~load_kreqs () =
  let total = load_kreqs *. 1000.0 in
  [
    {
      name = "web";
      arrival = Poisson { rate = 0.60 *. total };
      service = Stats.Dist.uniform ~lo:5_000.0 ~hi:25_000.0;
      flow_len_mean = flow_len;
      connections;
    };
    {
      name = "api";
      arrival =
        Diurnal { mean_rate = 0.25 *. total; amplitude = 0.7; period = Kernsim.Time.ms 200 };
      service = Stats.Dist.lognormal ~mu:(log 12_000.0) ~sigma:0.5;
      flow_len_mean = flow_len;
      connections;
    };
    {
      (* the antagonist: bursty arrivals, heavy-tailed services *)
      name = "batch";
      arrival =
        (let mean = 0.15 *. total in
         let base = mean /. 1.4 in
         Burst
           {
             base_rate = base;
             burst_rate = 3.0 *. base;
             mean_on = Kernsim.Time.ms 20;
             mean_off = Kernsim.Time.ms 80;
           });
      service = Stats.Dist.pareto ~alpha:1.3 ~lo:20_000.0 ~hi:2_000_000.0;
      flow_len_mean = flow_len;
      connections;
    };
  ]

(* One connection slot: the only live state a flow ever occupies.  All
   randomness comes from the slot's own stream, so advancing a slot is
   independent of every other slot and of the caller's window size. *)
type slot = {
  tenant : int;
  index : int;  (* within the tenant's pool *)
  rng : Stats.Prng.t;
  mutable next_at : ns;
  mutable remaining : int;  (* requests left in the open flow *)
  mutable flow_seq : int;  (* per-slot flow counter (feeds flow_key) *)
  mutable on : bool;  (* Burst phase *)
  mutable phase_until : ns;
}

(* Every slot, tenant-major, sits in one persistent binary min-heap kept in
   two int arrays: [key] (the slot's [next_at]) and [heap] (its index into
   [slots]), ordered by (key, index).  The index is tenant-major, so that
   order is exactly (time, tenant, slot).  A window pops the root, emits
   it, advances that slot and sifts it back down: a k-way merge of the
   slots' arrival streams, each strictly increasing. *)
type t = {
  tenants : tenant array;
  slots : slot array;
  key : int array;
  heap : int array;
  mutable flows_completed : int;
  mutable requests_emitted : int;
}

(* Exponential gap in ns for a per-slot rate in req/s; rates <= 0 mean "not
   in this phase", pushed effectively to infinity. *)
let exp_gap rng ~rate_per_sec =
  if rate_per_sec <= 0.0 then max_int / 4
  else
    let mean_ns = 1e9 /. rate_per_sec in
    max 1 (int_of_float (-.log (1.0 -. Stats.Prng.float rng) *. mean_ns))
[@@inline]

(* Geometric-ish flow length with the given mean (>= 1 always). *)
let flow_len rng ~mean =
  if mean <= 1.0 then 1
  else 1 + int_of_float (-.log (1.0 -. Stats.Prng.float rng) *. (mean -. 1.0))

(* Advance [slot]'s arrival clock past [from] under [arrival] split over
   [conns] slots.  Diurnal uses thinning against the peak rate, so the
   realised process integrates exactly to the requested profile; Burst
   restarts the gap at each phase boundary (valid by memorylessness). *)
let rec next_arrival arrival ~conns slot ~from =
  let c = float_of_int conns in
  match arrival with
  | Poisson { rate } -> from + exp_gap slot.rng ~rate_per_sec:(rate /. c)
  | Diurnal { mean_rate; amplitude; period } ->
    let peak = mean_rate *. (1.0 +. abs_float amplitude) /. c in
    let cand = from + exp_gap slot.rng ~rate_per_sec:peak in
    let r = diurnal_rate ~mean_rate ~amplitude ~period cand /. c in
    if Stats.Prng.float slot.rng *. peak <= r then cand
    else next_arrival arrival ~conns slot ~from:cand
  | Burst { base_rate; burst_rate; _ } when not (base_rate > 0.0 || burst_rate > 0.0) ->
    (* neither phase emits: never, rather than stepping across phase
       boundaries forever *)
    from + exp_gap slot.rng ~rate_per_sec:0.0
  | Burst { base_rate; burst_rate; mean_on; mean_off } ->
    let rate = (if slot.on then burst_rate else base_rate) /. c in
    let cand = from + exp_gap slot.rng ~rate_per_sec:rate in
    if cand <= slot.phase_until then cand
    else begin
      let resume = slot.phase_until in
      let dwell = if slot.on then mean_off else mean_on in
      slot.on <- not slot.on;
      slot.phase_until <- resume + exp_gap slot.rng ~rate_per_sec:(1e9 /. float_of_int (max 1 dwell));
      next_arrival arrival ~conns slot ~from:resume
    end

(* flow_key layout: tenant | slot | per-slot sequence.  Stable across
   window sizes (nothing global), unique across the run. *)
let key ~tenant ~slot ~seq = (tenant lsl 54) lor (slot lsl 34) lor (seq land 0x3_FFFF_FFFF)

let open_flow tn slot =
  slot.flow_seq <- slot.flow_seq + 1;
  slot.remaining <- flow_len slot.rng ~mean:tn.flow_len_mean

(* (k, s) sorts before (k', s') *)
let lt (k : int) (s : int) k' s' = k < k' || (k = k' && s < s')

(* Settle slot [s] with key [k] into the hole at heap entry [i], moving
   smaller children up. *)
let rec sift_down t i k s =
  let n = Array.length t.heap in
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < n && lt t.key.(l + 1) t.heap.(l + 1) t.key.(l) t.heap.(l) then l + 1 else l
  in
  if c < n && lt t.key.(c) t.heap.(c) k s then begin
    t.key.(i) <- t.key.(c);
    t.heap.(i) <- t.heap.(c);
    sift_down t c k s
  end
  else begin
    t.key.(i) <- k;
    t.heap.(i) <- s
  end

let create ~seed ~start tenants =
  if tenants = [] then invalid_arg "Traffic.create: no tenants";
  let root = Stats.Prng.create ~seed in
  let tenants = Array.of_list tenants in
  let t =
    {
      tenants;
      slots = [||];
      key = [||];
      heap = [||];
      flows_completed = 0;
      requests_emitted = 0;
    }
  in
  let slots =
    Array.mapi
      (fun ti tn ->
        if tn.connections <= 0 then invalid_arg "Traffic.create: connections must be positive";
        let tenant_rng = Stats.Prng.split root in
        Array.init tn.connections (fun index ->
            let rng = Stats.Prng.split tenant_rng in
            let slot =
              {
                tenant = ti;
                index;
                rng;
                next_at = start;
                remaining = 0;
                flow_seq = -1;
                on = false;
                phase_until = start;
              }
            in
            (* stagger the first burst phase boundary so slots drift apart *)
            (match tn.arrival with
            | Burst { mean_off; _ } ->
              slot.phase_until <-
                start + exp_gap rng ~rate_per_sec:(1e9 /. float_of_int (max 1 mean_off))
            | _ -> ());
            open_flow tn slot;
            slot.next_at <- next_arrival tn.arrival ~conns:tn.connections slot ~from:start;
            slot))
      tenants
    |> Array.to_list |> Array.concat
  in
  let n = Array.length slots in
  let t =
    {
      t with
      slots;
      key = Array.map (fun s -> s.next_at) slots;
      heap = Array.init n Fun.id;
    }
  in
  for i = (n / 2) - 1 downto 0 do
    sift_down t i t.key.(i) t.heap.(i)
  done;
  t

(* Emit the root slot's next request through [emit], after advancing the
   slot and restoring the heap; the dense [req_id] is the emission count.
   Everything is an int, so a request costs no allocation. *)
let pop t emit =
  let s = t.heap.(0) in
  let slot = t.slots.(s) in
  let tn = t.tenants.(slot.tenant) in
  let service = max 1 (Stats.Dist.sample_int tn.service slot.rng) in
  let req_id = t.requests_emitted in
  let flow_key = key ~tenant:slot.tenant ~slot:slot.index ~seq:slot.flow_seq in
  let arrived = slot.next_at in
  t.requests_emitted <- req_id + 1;
  slot.remaining <- slot.remaining - 1;
  if slot.remaining <= 0 then begin
    t.flows_completed <- t.flows_completed + 1;
    open_flow tn slot
  end;
  slot.next_at <- next_arrival tn.arrival ~conns:tn.connections slot ~from:arrived;
  sift_down t 0 slot.next_at s;
  emit ~req_id ~tenant:slot.tenant ~flow_key ~arrived ~service

(* request-ids are dense in emission order: windows partition the stream
   by arrival time, so the ids a request gets are independent of the
   caller's window size *)
let iter_window t ~until emit =
  while t.key.(0) < until do
    pop t emit
  done

let next_window t ~until =
  let acc = ref [] in
  iter_window t ~until (fun ~req_id ~tenant ~flow_key ~arrived ~service ->
      acc := { req_id; tenant; flow_key; arrived; service } :: !acc);
  List.rev !acc

let tenant_name t i = t.tenants.(i).name

let nr_tenants t = Array.length t.tenants

let flows_completed t = t.flows_completed

let requests_emitted t = t.requests_emitted

let live_flows t = Array.length t.slots

module Private = struct
  let rate_at = rate_at
end
