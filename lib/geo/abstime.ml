type t = int (* seconds since 1970-01-01T00:00:00, proleptic Gregorian *)

let of_seconds s = s
let to_seconds t = t

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year y then 29 else 28
  | _ -> invalid_arg (Printf.sprintf "Abstime.days_in_month: month %d" m)

let is_valid_date y m d = m >= 1 && m <= 12 && d >= 1 && d <= days_in_month y m

(* Days from civil date, Howard Hinnant's algorithm (public domain). *)
let days_from_civil y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = (m + 9) mod 12 in
  let doy = (153 * mp + 2) / 5 + d - 1 in
  let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy in
  era * 146097 + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - era * 146097 in
  let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365 in
  let y = yoe + era * 400 in
  let doy = doe - (365 * yoe + yoe / 4 - yoe / 100) in
  let mp = (5 * doy + 2) / 153 in
  let d = doy - (153 * mp + 2) / 5 + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  let y = if m <= 2 then y + 1 else y in
  (y, m, d)

let of_ymd_checked y m d =
  if not (is_valid_date y m d) then
    Error (Printf.sprintf "Abstime.of_ymd: invalid date %d-%02d-%02d" y m d)
  else Ok (days_from_civil y m d * 86400)

let of_ymd y m d =
  match of_ymd_checked y m d with
  | Ok t -> t
  | Error m -> invalid_arg m

let of_ymd_hms_checked y m d hh mm ss =
  if hh < 0 || hh > 23 || mm < 0 || mm > 59 || ss < 0 || ss > 59 then
    Error
      (Printf.sprintf "Abstime.of_ymd_hms: invalid time %02d:%02d:%02d" hh mm ss)
  else
    match of_ymd_checked y m d with
    | Ok day -> Ok (day + (hh * 3600 + mm * 60 + ss))
    | Error _ as e -> e

let of_ymd_hms y m d hh mm ss =
  match of_ymd_hms_checked y m d hh mm ss with
  | Ok t -> t
  | Error m -> invalid_arg m

(* Floor division/modulo so negative timestamps map to the correct day. *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let fmod a b = a - fdiv a b * b

let to_ymd t = civil_from_days (fdiv t 86400)

let to_ymd_hms t =
  let day = fdiv t 86400 in
  let sec = fmod t 86400 in
  (civil_from_days day, (sec / 3600, sec mod 3600 / 60, sec mod 60))

let add_days t d = t + d * 86400

let diff_seconds a b = a - b
let diff_days a b = float_of_int (a - b) /. 86400.

let day_window t = (add_days t (-1), add_days t 1)

let in_day_window ~at t =
  let lo, hi = day_window at in
  lo <= t && t <= hi

let compare = Int.compare
let equal = Int.equal

let to_string t =
  let (y, m, d), (hh, mm, ss) = to_ymd_hms t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d" y m d hh mm ss

(* the value of the digits [s.[i..i+n)], or -1 if one is not a digit *)
let rec digits s i n acc =
  if n = 0 then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> digits s (i + 1) (n - 1) ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* any date the general reader accepts: [YYYY-MM-DD], then an optional
   [T] or space and [hh:mm:ss], each field read by [int_of_string] *)
let of_string_general s =
  let s = String.trim s in
  let parse_date ds =
    match String.split_on_char '-' ds with
    | [ y; m; d ] ->
      (match int_of_string_opt y, int_of_string_opt m, int_of_string_opt d with
       | Some y, Some m, Some d when is_valid_date y m d -> Some (y, m, d)
       | _ -> None)
    | _ -> None
  in
  let parse_time ts =
    match String.split_on_char ':' ts with
    | [ h; m; s ] ->
      (match int_of_string_opt h, int_of_string_opt m, int_of_string_opt s with
       | Some h, Some m, Some s
         when h >= 0 && h < 24 && m >= 0 && m < 60 && s >= 0 && s < 60 ->
         Some (h, m, s)
       | _ -> None)
    | _ -> None
  in
  let split_at c =
    match String.index_opt s c with
    | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> None
  in
  match split_at 'T' with
  | Some (ds, ts) ->
    (match parse_date ds, parse_time ts with
     | Some (y, m, d), Some (hh, mm, ss) -> Some (of_ymd_hms y m d hh mm ss)
     | _ -> None)
  | None ->
    (match split_at ' ' with
     | Some (ds, ts) ->
       (match parse_date ds, parse_time ts with
        | Some (y, m, d), Some (hh, mm, ss) -> Some (of_ymd_hms y m d hh mm ss)
        | _ -> None)
     | None ->
       (match parse_date s with
        | Some (y, m, d) -> Some (of_ymd y m d)
        | None -> None))

(* YYYY-MM-DD with every Y, M and D a digit is read in place, to the
   value the general reader gives it; every other shape takes the
   general reader *)
let of_string s =
  let canonical = String.length s = 10 && s.[4] = '-' && s.[7] = '-' in
  let y = if canonical then digits s 0 4 0 else -1 in
  let m = if y >= 0 then digits s 5 2 0 else -1 in
  let d = if m >= 0 then digits s 8 2 0 else -1 in
  if d >= 0 then
    if is_valid_date y m d then Some (days_from_civil y m d * 86400) else None
  else of_string_general s
