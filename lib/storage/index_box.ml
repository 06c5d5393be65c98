module Box = Gaea_geo.Box

(* a cell's two coordinates, compared and hashed as ints rather than by
   the polymorphic [caml_hash]; the hash mixes both into the low bits
   the table indexes by *)
module Cell = Hashtbl.Make (struct
  type t = int * int

  let equal ((x, y) : t) (x', y') = x = x' && y = y'

  let hash ((x, y) : t) =
    let h = ((x * 0x1f3d5b79) + y) * 0x2545f491 in
    h lxor (h lsr 29)
end)

type level = {
  side : float;  (* 2^L *)
  cells : (Oid.t * Box.t) list Cell.t;  (* non-empty only *)
}

type t = {
  levels : (int, level) Hashtbl.t;  (* non-empty only *)
  aside : Box.t Oid.Tbl.t;
}

let create () = { levels = Hashtbl.create 8; aside = Oid.Tbl.create 1 }

(* cell numbers stay below this in magnitude, so they are exact ints *)
let cell_limit = 0x1p52

let cell side x = int_of_float (Float.floor (x /. side))

(* The level and cell of a box, or [None] when no level can hold it.
   [frexp v] has exponent e with 2^(e-1) <= v < 2^e, so 2^e is above the
   longer side and, from e - 52 up, above the corner over 2^52. *)
let placement (b : Box.t) =
  let longer = Float.max (Box.width b) (Box.height b) in
  let by_size = if longer = 0. then 0 else snd (Float.frexp longer) in
  let corner = Float.max (Float.abs b.Box.xmin) (Float.abs b.Box.ymin) in
  let by_corner = snd (Float.frexp corner) - 52 in
  let l = max (-1074) (max by_size by_corner) in
  let side = Float.ldexp 1. l in
  if Float.is_finite side && longer < side then
    Some (l, side, (cell side b.Box.xmin, cell side b.Box.ymin))
  else None

let add t oid b =
  match placement b with
  | None -> Oid.Tbl.replace t.aside oid b
  | Some (l, side, key) ->
    let lvl =
      match Hashtbl.find_opt t.levels l with
      | Some lvl -> lvl
      | None ->
        let lvl = { side; cells = Cell.create 64 } in
        Hashtbl.add t.levels l lvl;
        lvl
    in
    let others = Option.value ~default:[] (Cell.find_opt lvl.cells key) in
    Cell.replace lvl.cells key ((oid, b) :: others)

let remove t oid b =
  match placement b with
  | None -> Oid.Tbl.remove t.aside oid
  | Some (l, _, key) ->
    Option.iter
      (fun lvl ->
        match Cell.find_opt lvl.cells key with
        | None -> ()
        | Some entries ->
          (match List.filter (fun (o, _) -> o <> oid) entries with
           | [] ->
             Cell.remove lvl.cells key;
             if Cell.length lvl.cells = 0 then Hashtbl.remove t.levels l
           | rest -> Cell.replace lvl.cells key rest))
      (Hashtbl.find_opt t.levels l)

(* A box overlapping [q] has its corner cell within one cell left of and
   below the cells of [q]'s corners: its width is under the side. *)
let probe_level lvl (q : Box.t) acc =
  let test acc entries =
    List.fold_left
      (fun acc (oid, b) -> if Box.overlaps b q then oid :: acc else acc)
      acc entries
  in
  let bound v = Float.min cell_limit (Float.max (-.cell_limit) v) in
  let lo v = bound (Float.floor (v /. lvl.side) -. 1.) in
  let hi v = bound (Float.floor (v /. lvl.side)) in
  let x0 = lo q.Box.xmin and x1 = hi q.Box.xmax in
  let y0 = lo q.Box.ymin and y1 = hi q.Box.ymax in
  if (x1 -. x0 +. 1.) *. (y1 -. y0 +. 1.) > float (Cell.length lvl.cells)
  then Cell.fold (fun _ entries acc -> test acc entries) lvl.cells acc
  else begin
    let acc = ref acc in
    for cx = int_of_float x0 to int_of_float x1 do
      for cy = int_of_float y0 to int_of_float y1 do
        match Cell.find_opt lvl.cells (cx, cy) with
        | Some entries -> acc := test !acc entries
        | None -> ()
      done
    done;
    !acc
  end

let overlapping t q =
  let acc =
    Oid.Tbl.fold
      (fun oid b acc -> if Box.overlaps b q then oid :: acc else acc)
      t.aside []
  in
  Hashtbl.fold (fun _ lvl acc -> probe_level lvl q acc) t.levels acc
