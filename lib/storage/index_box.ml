module Box = Gaea_geo.Box

(* A cell is one float array: its entry count at 0, then entry [e] at
   [1 + 5e]: the id and the box's xmin, ymin, xmax, ymax.  An id below
   2^53 in magnitude is an exact float; a probe reads one cell from one
   block, its ids beside the corners it tests. *)
let stride = 5

(* A level's cells in an open-addressed table probed linearly: slot [i]
   holds the cell numbered [(keys.(2i), keys.(2i+1))], or none when
   [keys.(2i) = free]; at most half the slots are taken. *)
type level = {
  l : int;
  side : float;  (* 2^l *)
  mutable reach_x : float;  (* above every width the level has held *)
  mutable reach_y : float;
  mutable cells : int;
  mutable keys : int array;
  mutable slots : float array array;
}

type t = {
  mutable levels : level list;  (* non-empty only *)
  aside : Box.t Oid.Tbl.t;  (* boxes no level holds, by id *)
}

let create () = { levels = []; aside = Oid.Tbl.create 1 }

(* cell numbers stay below this in magnitude, so they are exact ints *)
let cell_limit = 0x1p52
let free = min_int
let no_cell = [| 0. |]

(* A box's cell side is this many doublings above its longer side: a
   cell then holds a few boxes' worth of area, and a window probes
   fewer, fuller cells. *)
let coarsening = 1

let cell side x = int_of_float (Float.floor (x /. side))

(* The level and cell of a box, or [None] when no level can hold it.
   [frexp v] has exponent e with 2^(e-1) <= v < 2^e, so 2^e is above the
   longer side and, from e - 52 up, above the corner over 2^52. *)
let placement (b : Box.t) =
  let longer = Float.max (Box.width b) (Box.height b) in
  let by_size =
    if longer = 0. then 0 else snd (Float.frexp longer) + coarsening
  in
  let corner = Float.max (Float.abs b.Box.xmin) (Float.abs b.Box.ymin) in
  let by_corner = snd (Float.frexp corner) - 52 in
  let l = max (-1074) (max by_size by_corner) in
  let side = Float.ldexp 1. l in
  if Float.is_finite side && longer < side then
    Some (l, side, cell side b.Box.xmin, cell side b.Box.ymin)
  else None

(* an id a cell can hold as an exact float *)
let storable id = Int.abs id < 0x20000000000000

(* The slot a cell is looked up from: the cells of a row sit four by
   four in neighbouring slots, so a probe's row reads few cache lines *)
let home mask cx cy =
  let h = (((cx asr 2) * 0x1f3d5b79) + cy) * 0x2545f491 in
  (((h lxor (h lsr 29)) lsl 2) lor (cx land 3)) land mask

(* the slot holding cell [(cx, cy)], or the free slot it would take,
   searched from slot [i] on *)
let rec seek keys mask cx cy i =
  let kx = keys.(2 * i) in
  if kx = free || (kx = cx && keys.((2 * i) + 1) = cy) then i
  else seek keys mask cx cy ((i + 1) land mask)

let find lvl cx cy =
  let mask = Array.length lvl.slots - 1 in
  seek lvl.keys mask cx cy (home mask cx cy)

let make_level l side capacity =
  { l; side; reach_x = 0.; reach_y = 0.; cells = 0;
    keys = Array.make (2 * capacity) free;
    slots = Array.make capacity no_cell }

let put lvl cx cy c =
  let i = find lvl cx cy in
  lvl.keys.(2 * i) <- cx;
  lvl.keys.((2 * i) + 1) <- cy;
  lvl.slots.(i) <- c;
  lvl.cells <- lvl.cells + 1

let grow lvl =
  let keys = lvl.keys and slots = lvl.slots in
  let capacity = 2 * Array.length slots in
  lvl.keys <- Array.make (2 * capacity) free;
  lvl.slots <- Array.make capacity no_cell;
  lvl.cells <- 0;
  Array.iteri
    (fun i c ->
      if keys.(2 * i) <> free then put lvl keys.(2 * i) keys.((2 * i) + 1) c)
    slots

(* Free slot [i], shifting back each later slot of its run whose home
   does not lie cyclically in (hole, that slot]: every cell stays
   reachable from its home without a tombstone. *)
let vacate lvl i =
  let keys = lvl.keys and mask = Array.length lvl.slots - 1 in
  let rec shift hole j =
    let j = (j + 1) land mask in
    let kx = keys.(2 * j) in
    if kx = free then hole
    else begin
      let h = home mask kx keys.((2 * j) + 1) in
      let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
      if stays then shift hole j
      else begin
        keys.(2 * hole) <- kx;
        keys.((2 * hole) + 1) <- keys.((2 * j) + 1);
        lvl.slots.(hole) <- lvl.slots.(j);
        shift j j
      end
    end
  in
  let hole = shift i i in
  keys.(2 * hole) <- free;
  lvl.slots.(hole) <- no_cell;
  lvl.cells <- lvl.cells - 1

(* [c] with one more entry: [c] itself, or a wider copy when full *)
let push c id (b : Box.t) =
  let n = int_of_float c.(0) in
  let c =
    if 1 + (stride * (n + 1)) <= Array.length c then c
    else begin
      let wider = Array.make (1 + (stride * max 4 (2 * n))) 0. in
      Array.blit c 0 wider 0 (1 + (stride * n));
      wider
    end
  in
  let at = 1 + (stride * n) in
  c.(at) <- float_of_int id;
  c.(at + 1) <- b.Box.xmin;
  c.(at + 2) <- b.Box.ymin;
  c.(at + 3) <- b.Box.xmax;
  c.(at + 4) <- b.Box.ymax;
  c.(0) <- float_of_int (n + 1);
  c

let add t id b =
  match placement b with
  | Some (l, side, cx, cy) when storable id ->
    let lvl =
      match List.find_opt (fun lvl -> lvl.l = l) t.levels with
      | Some lvl -> lvl
      | None ->
        let lvl = make_level l side 16 in
        t.levels <- lvl :: t.levels;
        lvl
    in
    (* [succ] of the rounded width is above the exact one *)
    lvl.reach_x <- Float.max lvl.reach_x (Float.succ (Box.width b));
    lvl.reach_y <- Float.max lvl.reach_y (Float.succ (Box.height b));
    let i = find lvl cx cy in
    if lvl.keys.(2 * i) <> free then lvl.slots.(i) <- push lvl.slots.(i) id b
    else begin
      if 2 * (lvl.cells + 1) > Array.length lvl.slots then grow lvl;
      put lvl cx cy (push no_cell id b)
    end
  | _ -> Oid.Tbl.replace t.aside id b

let remove t id b =
  match placement b with
  | Some (l, _, cx, cy) when storable id ->
    (match List.find_opt (fun lvl -> lvl.l = l) t.levels with
     | None -> ()
     | Some lvl ->
       let i = find lvl cx cy in
       let c = lvl.slots.(i) in
       let n = int_of_float c.(0) and key = float_of_int id in
       let e = ref 0 in
       while !e < n && c.(1 + (stride * !e)) <> key do incr e done;
       if !e < n then begin
         Array.blit c (1 + (stride * (n - 1))) c (1 + (stride * !e)) stride;
         c.(0) <- float_of_int (n - 1);
         if n = 1 then begin
           vacate lvl i;
           if lvl.cells = 0 then
             t.levels <- List.filter (fun other -> other != lvl) t.levels
         end
       end)
  | _ -> Oid.Tbl.remove t.aside id

let scan_cell c (q : Box.t) f =
  for e = 0 to int_of_float c.(0) - 1 do
    let at = 1 + (stride * e) in
    if c.(at + 1) <= q.Box.xmax
       && q.Box.xmin <= c.(at + 3)
       && c.(at + 2) <= q.Box.ymax
       && q.Box.ymin <= c.(at + 4)
    then f (int_of_float c.(at))
  done

(* the cell of a probe coordinate, clamped to the cell numbers a box
   can have *)
let probe_cell side v =
  int_of_float
    (Float.min cell_limit (Float.max (-.cell_limit) (Float.floor (v /. side))))

(* A box overlapping [q] has its corner cell among the cells of [q]'s
   upper corner and of [q]'s lower corner less the level's reach: its
   lower corner is at most its width below [q]'s. *)
let probe_level lvl (q : Box.t) f =
  let x0 = probe_cell lvl.side (q.Box.xmin -. lvl.reach_x)
  and x1 = probe_cell lvl.side q.Box.xmax in
  let y0 = probe_cell lvl.side (q.Box.ymin -. lvl.reach_y)
  and y1 = probe_cell lvl.side q.Box.ymax in
  if float (x1 - x0 + 1) *. float (y1 - y0 + 1) > float lvl.cells then
    Array.iteri
      (fun i c -> if lvl.keys.(2 * i) <> free then scan_cell c q f)
      lvl.slots
  else
    for cy = y0 to y1 do
      for cx = x0 to x1 do
        let i = find lvl cx cy in
        if lvl.keys.(2 * i) <> free then scan_cell lvl.slots.(i) q f
      done
    done

let iter_overlapping t q f =
  Oid.Tbl.iter (fun id b -> if Box.overlaps b q then f id) t.aside;
  List.iter (fun lvl -> probe_level lvl q f) t.levels
